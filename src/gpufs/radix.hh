/**
 * @file
 * Per-file buffer cache: a radix tree with lock-free traversal (§4.2).
 *
 * Each open file owns a radix tree indexed by page number. Last-level
 * (leaf) nodes hold an array of fpage structures *by value* — in-place
 * to avoid pointer chasing and dynamic allocation on the lookup path —
 * each managing one cached page: a read/write reference count and a
 * spinlock together exclude mutually incompatible operations
 * (initialization, read/write access, page-out).
 *
 * Traversal is lock-free in the style of Linux seqlocks: writers bump a
 * per-node sequence counter to odd, mutate, bump back to even; readers
 * snapshot the counter around the child load and retry on a mismatch.
 * GPUfs "retries once without locking, then locks on its third
 * attempt". Because a page frame may be reclaimed and recycled between
 * lookup and use, every tree carries a unique id that is stamped into
 * the pframe of every page it owns; after pinning, the reader verifies
 * (tree uid, page index) against the pframe and backs off on mismatch.
 *
 * Leaf nodes are threaded onto a doubly linked FIFO list at allocation
 * time; paging walks it lock-free from the tail (oldest) — the paper's
 * constant-work alternative to clock/LRU, since paging hijacks an
 * application thread (§4.2). Nodes are never freed while the tree is
 * alive, so list and tree traversals need no hazard tracking.
 */

#ifndef GPUFS_GPUFS_RADIX_HH
#define GPUFS_GPUFS_RADIX_HH

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>

#include "base/logging.hh"
#include "base/stats.hh"
#include "base/status.hh"
#include "gpufs/frame.hh"
#include "gpufs/readahead.hh"
#include "gpufs/spinlock.hh"

namespace gpufs {
namespace core {

constexpr unsigned kRadixBits = 6;
constexpr unsigned kRadixFanout = 1u << kRadixBits;      // 64
constexpr unsigned kRadixLevels = 4;                     // 16M pages/file

/** fpage lifecycle. Transitions under the fpage spinlock. */
enum PageState : uint32_t {
    kPageEmpty = 0,      ///< no frame attached
    kPageInit = 1,       ///< frame being filled (RPC in flight)
    kPageReady = 2,      ///< frame valid; pinnable
    kPageEvicting = 3,   ///< paging out; pinners must back off
};

/** Per-page bookkeeping, stored by value inside leaf nodes. */
struct FPage {
    std::atomic<uint32_t> state{kPageEmpty};
    /** Read/write pin count; >0 blocks eviction. */
    std::atomic<int32_t> refs{0};
    std::atomic<uint32_t> frame{kNoFrame};
    SpinLock lock;
};

struct RadixNode {
    RadixNode(uint32_t lvl, uint64_t base);

    /** Seqlock counter: odd while a writer mutates children. */
    std::atomic<uint32_t> seq{0};
    SpinLock lock;
    const uint32_t level;        ///< 0 = leaf
    const uint64_t baseIdx;      ///< first page index this node covers

    /** Inner nodes: child pointers, set once (null -> node). */
    std::atomic<RadixNode *> children[kRadixFanout];
    /** Leaf nodes only. */
    std::unique_ptr<FPage[]> pages;

    /** FIFO list threading (leaf nodes): next = older, prev = newer. */
    std::atomic<RadixNode *> fifoNext{nullptr};
    std::atomic<RadixNode *> fifoPrev{nullptr};

    uint64_t pageIndexOf(const FPage *p) const
    {
        return baseIdx + static_cast<uint64_t>(p - pages.get());
    }
};

/** Counters shared with the owning subsystem's StatSet. */
struct CacheCounters {
    Counter &lockfreeAccesses;
    Counter &lockedAccesses;
    Counter &pagesReclaimed;
    /** Prefetch feedback: speculative pages promoted by a first pin
     *  vs evicted/dropped never pinned (every published read-ahead
     *  page ends up in exactly one of the two). */
    Counter &raHits;
    Counter &raWasted;
};

/** One page claimed by beginInitBatch: the fpage (held locked) and the
 *  frame allocated for it. */
struct BatchSlot {
    FPage *page;
    uint32_t frame;
};

/** One dirty page extent taken by takeDirtyBatch (fpage held LOCKED
 *  until finishDirtyBatch): the page's dirty byte range [lo, hi)
 *  backed by @p frame. */
struct DirtyExtent {
    FPage *page;
    uint64_t pageIdx;
    uint32_t frame;
    uint32_t lo;
    uint32_t hi;
};

/**
 * One file's page cache. Thread safe; all synchronization is internal
 * and follows the protocols described above.
 */
class FileCache
{
  public:
    /**
     * @param frame_arena  the device-wide raw data array
     * @param counters     GpuFs-level stat counters
     * @param force_locked take node locks on every traversal (Fig. 7)
     */
    FileCache(FrameArena &frame_arena, const CacheCounters &counters,
              bool force_locked);
    ~FileCache();

    FileCache(const FileCache &) = delete;
    FileCache &operator=(const FileCache &) = delete;

    /** Unique tree id stamped into owned pframes. Never reused. */
    uint64_t uid() const { return uid_; }

    /** Wire the owning CacheFile's read-ahead stream table so
     *  eviction-side feedback (noteWasted) reaches the policy. Set
     *  once at setupFile, before any page is published; null
     *  (standalone FileCache tests) skips per-file feedback but never
     *  the StatSet counters. */
    void setTracker(ReadAheadStreams *t) { tracker_ = t; }

    /** Wire the owning CacheFile's tenant word so every frame this
     *  cache claims is charged to the tenant currently holding the
     *  file open (reopen under a different tenant re-points the charge
     *  for NEW faults; resident frames keep their original stamp).
     *  Null (standalone tests) charges the default tenant. */
    void setTenantTag(const std::atomic<uint8_t> *t) { tenantTag_ = t; }

    /** Tenant new frame claims are charged to. */
    uint8_t
    tenantOf() const
    {
        return tenantTag_ ? tenantTag_->load(std::memory_order_relaxed)
                          : 0;
    }

    /** Largest page index addressable by the fixed-height tree. */
    static constexpr uint64_t
    maxPageIndex()
    {
        return (1ull << (kRadixBits * kRadixLevels)) - 1;
    }

    /**
     * Find (creating the path if needed) the fpage for @p page_idx.
     * Lock-free with two retries, then locked — or always locked in
     * force_locked mode. Never fails for idx <= maxPageIndex().
     */
    FPage *getPage(uint64_t page_idx);

    /**
     * Lookup-only probe: the fpage for @p page_idx if its radix path
     * already exists, nullptr otherwise — never allocates nodes. Used
     * by the daemon's peer-cache probes, which must not grow the
     * OWNER's tree for pages it may never cache (and must never
     * block: child pointers are set-once null -> node, so plain
     * acquire loads suffice without the seqlock dance).
     */
    FPage *findPage(uint64_t page_idx);

    /**
     * Fast-path pin: succeeds iff the page is Ready and identity-
     * verified. On success the page is pinned and *frame_out is valid.
     */
    bool tryPinReady(FPage &p, uint64_t page_idx, uint32_t *frame_out);

    /**
     * Slow path: lock the fpage; if someone initialized it meanwhile,
     * pin it; otherwise allocate a frame and run @p fetch to fill it.
     * @param fetch  Status(uint8_t *data, uint32_t *valid_bytes); runs
     *               with the fpage lock held (concurrent openers of the
     *               same page serialize here, as in the paper).
     * @return Ok and pin (*frame_out, *was_init=true if this call did
     *         the fill), NoSpace if the arena is exhausted (caller
     *         pages out and retries), or the fetch's error.
     */
    template <typename FetchFn>
    Status
    initAndPin(FPage &p, uint64_t page_idx, uint32_t *frame_out,
               bool *did_init, FetchFn &&fetch)
    {
        p.lock.lock();
        uint32_t s = p.state.load(std::memory_order_acquire);
        if (s == kPageReady) {
            p.refs.fetch_add(1, std::memory_order_seq_cst);
            *frame_out = p.frame.load(std::memory_order_acquire);
            *did_init = false;
            p.lock.unlock();
            return Status::Ok;
        }
        // Holding the lock, state can only be Empty here: Init/Evicting
        // are only set by the lock holder.
        uint32_t f = claimFrame(p, page_idx, tenantOf());
        if (f == kNoFrame) {
            p.lock.unlock();
            return Status::NoSpace;
        }
        p.state.store(kPageInit, std::memory_order_release);

        uint32_t valid = 0;
        Status st = fetch(arena.data(f), &valid);
        if (!ok(st)) {
            p.frame.store(kNoFrame, std::memory_order_relaxed);
            p.state.store(kPageEmpty, std::memory_order_release);
            arena.free(f);
            p.lock.unlock();
            return st;
        }
        arena.frame(f).validBytes.store(valid, std::memory_order_relaxed);
        p.refs.fetch_add(1, std::memory_order_seq_cst);
        p.state.store(kPageReady, std::memory_order_release);
        p.lock.unlock();
        *frame_out = f;
        *did_init = true;
        return Status::Ok;
    }

    /** Drop a pin taken by tryPinReady/initAndPin. */
    void
    unpin(FPage &p)
    {
        int32_t prev = p.refs.fetch_sub(1, std::memory_order_seq_cst);
        gpufs_assert(prev > 0, "unpin underflow");
    }

    /**
     * Claim up to @p max_n contiguous Empty pages starting at
     * @p start_idx for a batched fill (read-ahead coalescing): each
     * claimed page is locked, given a frame, and moved to Init so
     * concurrent pinners serialize on it exactly as they do against a
     * single-page fill. The run stops at the first page that is
     * resident, in flight, contended, or unallocatable — a batch always
     * covers one contiguous file extent. Claimed pages stay locked
     * until finishInitBatch/abortInitBatch. Never blocks on a page
     * lock (tryLock only): read-ahead must not stall behind another
     * block's fetch.
     * @return the number of slots claimed (may be 0).
     */
    unsigned beginInitBatch(uint64_t start_idx, unsigned max_n,
                            BatchSlot *out);

    /** Publish a filled batch: per-page valid byte counts and
     *  DMA-completion times (@p ready[i] gates the first use of page
     *  i), pages become Ready and unlocked. Batch pages are NOT pinned
     *  (prefetch semantics).
     *  @p speculative tags each page's frame for prefetch-feedback
     *  accounting (read-ahead batches; demand batches pass false) —
     *  set under the fpage lock so a racing first pin always observes
     *  it. @p stream is the ReadAheadStreams slot the batch resolved
     *  (kNoStream for demand and static-policy batches), stamped into
     *  each frame so promotion/waste route to the issuing stream. */
    void finishInitBatch(const BatchSlot *slots, unsigned n,
                         const uint32_t *valid, const Time *ready,
                         bool speculative,
                         uint8_t stream = ReadAheadStreams::kNoStream);

    /** Roll a failed batch back to Empty, freeing the frames. */
    void abortInitBatch(const BatchSlot *slots, unsigned n);

    /**
     * Owner-warming adoption (daemon-thread context, sharded cache):
     * install @p src's bytes as this cache's Ready copy of
     * @p page_idx. Never blocks — the fpage is try-locked only and the
     * attempt is abandoned on contention, on a non-Empty page, or when
     * the arena declines the claim (exhausted, or @p tenant at quota);
     * the radix path is created if absent (node creation takes only
     * short internal allocation locks no RPC ever spans). The page
     * publishes Ready and UNPINNED with @p ready as its DMA-completion
     * stamp, exactly like a read-ahead publish without the speculative
     * tag. @return true iff adopted.
     */
    bool tryAdoptPage(uint64_t page_idx, const uint8_t *src,
                      uint32_t valid, Time ready, uint8_t tenant);

    /** No-demotion default for reclaim/evictFrame callers without a
     *  victim tier: evicted bytes just die with the frame. */
    static void
    noDemote(uint64_t, const uint8_t *, uint32_t)
    {
    }

    /** Keep-nothing predicate for reclaim: every evictable page is a
     *  candidate. */
    static bool
    keepNothing(uint64_t)
    {
        return false;
    }

    /**
     * Reclaim up to @p want unpinned Ready pages in FIFO order: leaf
     * nodes oldest-created first, pages in index order within a leaf.
     * A leaf never moves once created, so on one file this takes the
     * lowest page indices first whatever their reuse. Pages for which
     * @p keep(page_idx) returns true are passed over (the sharded
     * cache keeps the pages this GPU owns on a first walk), and so,
     * when @p keep_unread, are prefetched pages no block has read yet
     * (frames still tagged speculative). Dirty pages are skipped
     * unless @p allow_dirty, in which case
     * @p writeback is invoked (under the fpage lock) with
     * (page_idx, data, dirty_lo, dirty_hi) before the frame is freed.
     * @p demote is invoked (still under the fpage lock, after any
     * writeback, before the frame is recycled) with (page_idx, data,
     * valid_bytes) — the victim-tier demotion hook; the default drops
     * the bytes. @return pages actually freed.
     */
    template <typename KeepFn, typename WbFn, typename DemoteFn>
    unsigned
    reclaim(unsigned want, bool allow_dirty, bool keep_unread,
            KeepFn &&keep, WbFn &&writeback, DemoteFn &&demote)
    {
        unsigned freed = 0;
        for (RadixNode *n = fifoTail.load(std::memory_order_acquire);
             n != nullptr && freed < want;
             n = n->fifoPrev.load(std::memory_order_acquire)) {
            for (unsigned i = 0; i < kRadixFanout && freed < want; ++i) {
                if (keep(n->baseIdx + i))
                    continue;
                freed += tryEvictPage(n->pages[i], n->baseIdx + i,
                                      allow_dirty, keep_unread, writeback,
                                      demote);
            }
        }
        return freed;
    }

    template <typename WbFn>
    unsigned
    reclaim(unsigned want, bool allow_dirty, WbFn &&writeback)
    {
        return reclaim(want, allow_dirty, /*keep_unread=*/false,
                       keepNothing, writeback, noDemote);
    }

    /**
     * Try to evict the page currently backed by @p frame_idx (global-
     * LRU policy: the caller snapshotted evictable frames in access
     * order). Identity is verified — a frame recycled since the
     * snapshot is left alone. @p demote as in reclaim. @return 1 if
     * the frame was freed.
     */
    template <typename WbFn, typename DemoteFn>
    unsigned
    evictFrame(uint32_t frame_idx, bool allow_dirty, WbFn &&writeback,
               DemoteFn &&demote)
    {
        PFrame &pf = arena.frame(frame_idx);
        if (pf.fileUid.load(std::memory_order_acquire) != uid_)
            return 0;   // recycled since the caller's snapshot
        auto *p = static_cast<FPage *>(
            pf.owner.load(std::memory_order_acquire));
        if (!p || p->frame.load(std::memory_order_acquire) != frame_idx ||
            pf.fileUid.load(std::memory_order_acquire) != uid_) {
            return 0;
        }
        // An FPage maps to a fixed page index for the life of the
        // tree, so pageIdx cannot be stale once identity holds;
        // tryEvictPage re-verifies state/refs under the fpage lock.
        return tryEvictPage(*p, pf.pageIdx.load(std::memory_order_relaxed),
                            allow_dirty, /*keep_unread=*/false, writeback,
                            demote);
    }

    template <typename WbFn>
    unsigned
    evictFrame(uint32_t frame_idx, bool allow_dirty, WbFn &&writeback)
    {
        return evictFrame(frame_idx, allow_dirty, writeback, noDemote);
    }

    /**
     * Collect up to @p max_n dirty pages with index in [first_page,
     * last_page) for a batched write-back: each page's dirty extent is
     * atomically taken (leaving the page clean) and its fpage stays
     * LOCKED until finishDirtyBatch — the write twin of
     * beginInitBatch's lock-held-across-RPC protocol. The held lock
     * keeps eviction off the frame while the WritePages RPC reads it,
     * and makes a concurrent sync of the same page wait (then find
     * only bytes written after our take). A sync must never *report*
     * an in-flight page as synced: pages whose extent an in-flight
     * collector already took read as clean and are skipped here;
     * durability callers run awaitWritebacks once
     * after their take loop to wait those RPCs out. App-pinned pages
     * (refs != 0) are skipped, gfsync's "not concurrently accessed"
     * contract; lock-free readers/writers of Ready pages are NOT
     * blocked by the held lock (writes landing mid-RPC form a fresh
     * extent a later sync picks up).
     *
     * Locks are acquired in leaf-FIFO walk order, the one total order
     * every batching caller uses, so concurrent collectors cannot
     * deadlock. Callers loop until it returns 0 (restarts are cheap:
     * taken pages are no longer dirty) and MUST pair every call with
     * finishDirtyBatch. @return extents collected (may be 0).
     */
    unsigned takeDirtyBatch(uint64_t first_page, uint64_t last_page,
                            DirtyExtent *out, unsigned max_n);

    /**
     * Release a takeDirtyBatch batch. When @p restore, each extent is
     * merged back into its page (failed write-back: a later sync
     * retries; ranges dirtied meanwhile are preserved by the merge).
     * Always drops the fpage locks.
     */
    void finishDirtyBatch(const DirtyExtent *ext, unsigned n,
                          bool restore);

    /**
     * Completion barrier for in-flight batched write-backs of pages in
     * [first_page, last_page): collectors hold each taken page's fpage
     * lock until their RPC completes, so briefly acquiring every
     * in-range Ready page's lock guarantees that extents taken before
     * this call have reached the host. flushDirty runs it once after
     * its take loop, so sync callers never report bytes as synced that
     * a concurrent collector (e.g. another block's dirty eviction)
     * still has in flight.
     */
    void awaitWritebacks(uint64_t first_page, uint64_t last_page);

    /**
     * Drop every cached page without write-back (stale-cache
     * invalidation, truncate, unlink). @return false if any page was
     * pinned (caller decides how to surface the conflict).
     */
    bool dropAll();

    /** Mark a page's dirty-extent growth; maintains the dirty count. */
    void noteDirty(PFrame &pf, uint32_t lo, uint32_t hi);

    /** Atomically take a page's dirty extent, maintaining the dirty
     *  count (gmsync path). @return the packed extent taken. */
    uint64_t
    takeDirtyCounted(PFrame &pf)
    {
        uint64_t e = pf.takeDirtyExtent();
        if (PFrame::extentLo(e) < PFrame::extentHi(e))
            dirtyPages_.fetch_sub(1, std::memory_order_relaxed);
        return e;
    }

    uint64_t dirtyCount() const
    {
        return dirtyPages_.load(std::memory_order_relaxed);
    }

    /** Number of Ready pages (tests/benchmarks). */
    uint64_t residentPages() const;

    /** True if any page is pinned — for a parked file, by a gmmap
     *  mapping that outlived gclose. */
    bool anyPinned() const;

    /** Teardown only (GpuFs destruction, no block running): drop every
     *  pin still held. What is left then are the pins of gmmap mappings
     *  that outlive the system; they die with it. */
    void releasePins();

    FrameArena &frameArena() { return arena; }

  private:
    static std::atomic<uint64_t> nextUid;

    FrameArena &arena;
    CacheCounters counters;
    const bool forceLocked;
    const uint64_t uid_;
    /** Owning CacheFile's read-ahead stream table (may be null). */
    ReadAheadStreams *tracker_ = nullptr;
    /** Owning CacheFile's tenant word (may be null: default tenant). */
    const std::atomic<uint8_t> *tenantTag_ = nullptr;

    RadixNode root;
    std::mutex allocMtx;
    std::deque<RadixNode> nodePool;   // deque: stable addresses

    std::mutex listMtx;
    std::atomic<RadixNode *> fifoHead{nullptr};   // newest
    std::atomic<RadixNode *> fifoTail{nullptr};   // oldest

    std::atomic<uint64_t> dirtyPages_{0};

    static unsigned
    slotOf(uint64_t idx, unsigned level)
    {
        return (idx >> (kRadixBits * level)) & (kRadixFanout - 1);
    }

    /** One traversal attempt. @return the fpage, or nullptr if a
     *  seqlock validation failed (lock-free mode only). */
    FPage *walk(uint64_t idx, bool locked);

    /** Insert a child at @p node / @p slot (idempotent under races). */
    RadixNode *insertChild(RadixNode &node, unsigned slot, uint64_t idx);

    RadixNode *newNode(uint32_t level, uint64_t base);
    void pushFifo(RadixNode *leaf);

    /** Give the locked Empty page @p p a frame charged to @p tenant:
     *  stamp the frame's identity (tree uid, page index, owner) and
     *  access tick, and attach it. Every claim path (initAndPin,
     *  beginInitBatch, tryAdoptPage) goes through here and then moves
     *  the page's state on itself. @return the frame, or kNoFrame
     *  when the arena declines (exhausted, or @p tenant at quota). */
    uint32_t claimFrame(FPage &p, uint64_t page_idx, uint8_t tenant);

    template <typename WbFn, typename DemoteFn>
    unsigned
    tryEvictPage(FPage &p, uint64_t page_idx, bool allow_dirty,
                 bool keep_unread, WbFn &&writeback, DemoteFn &&demote)
    {
        if (p.state.load(std::memory_order_acquire) != kPageReady ||
            p.refs.load(std::memory_order_relaxed) != 0) {
            return 0;
        }
        if (!p.lock.tryLock())
            return 0;
        // The speculative tag is read under the fpage lock: a Ready
        // page's frame is stable there, and the tag can only clear (a
        // first pin promotes it, and then refs keeps the page anyway).
        if (p.state.load(std::memory_order_acquire) != kPageReady ||
            (keep_unread &&
             arena.frame(p.frame.load(std::memory_order_relaxed))
                 .speculative.load(std::memory_order_relaxed))) {
            p.lock.unlock();
            return 0;
        }
        p.state.store(kPageEvicting, std::memory_order_seq_cst);
        if (p.refs.load(std::memory_order_seq_cst) != 0) {
            // A pinner raced past the state check; page is in use.
            p.state.store(kPageReady, std::memory_order_release);
            p.lock.unlock();
            return 0;
        }
        uint32_t f = p.frame.load(std::memory_order_acquire);
        PFrame &pf = arena.frame(f);
        if (pf.isDirty()) {
            if (!allow_dirty) {
                p.state.store(kPageReady, std::memory_order_release);
                p.lock.unlock();
                return 0;
            }
            uint64_t e = pf.takeDirtyExtent();
            if (PFrame::extentLo(e) < PFrame::extentHi(e)) {
                writeback(page_idx, arena.data(f), PFrame::extentLo(e),
                          PFrame::extentHi(e));
                dirtyPages_.fetch_sub(1, std::memory_order_relaxed);
            }
        }
        uint32_t pristine = pf.pristineFrame.exchange(
            kNoFrame, std::memory_order_acq_rel);
        if (pristine != kNoFrame)
            arena.free(pristine);
        // Demotion hook: the frame's bytes are about to be recycled —
        // the fpage lock (still held) keeps them stable for the copy.
        // Runs after any dirty writeback, so a victim tier only ever
        // stages bytes the host has (or will never need back dirty).
        demote(page_idx, arena.data(f),
               pf.validBytes.load(std::memory_order_relaxed));
        retireSpeculative(pf, page_idx);
        p.frame.store(kNoFrame, std::memory_order_relaxed);
        arena.free(f);
        p.state.store(kPageEmpty, std::memory_order_release);
        p.lock.unlock();
        counters.pagesReclaimed.inc();
        return 1;
    }

    /** Prefetch feedback on the frame-free path: a still-speculative
     *  frame is dying without ever being pinned — count it wasted and
     *  feed the page index to the issuing stream's ghost ring (the
     *  slot tag is stable once the exchange is won: it was stored
     *  together with the tag under the publish-time fpage lock). */
    void
    retireSpeculative(PFrame &pf, uint64_t page_idx)
    {
        if (pf.speculative.exchange(false, std::memory_order_acq_rel)) {
            counters.raWasted.inc();
            if (tracker_) {
                tracker_->noteWasted(
                    pf.raStream.load(std::memory_order_relaxed),
                    page_idx);
            }
        }
    }
};

} // namespace core
} // namespace gpufs

#endif // GPUFS_GPUFS_RADIX_HH
