/**
 * @file
 * Adaptive per-file read-ahead: the access-pattern tracker behind
 * the default (unset) GpuFsParams::readAheadPages.
 *
 * The paper hand-tunes a single static `readAheadPages` constant — the
 * window that makes Figure 4's sequential scan fast is exactly the one
 * that wastes arena frames and PCIe bandwidth on Figure 6's random
 * workload. Production readahead (Linux's on-demand readahead, the
 * prefetch-feedback literature) instead scales the window per file
 * from the observed pattern. This tracker does the same for GPUfs:
 *
 *  - a last-offset / run-length sequential detector with stride
 *    recognition (any stride in [-8, 8] except 0, page units) feeds
 *    a window that ramps multiplicatively on confirmed runs (2, 4,
 *    8, ... up to kMaxReadAheadPages in BufferCache::planReadAhead)
 *    and collapses to zero the moment the pattern breaks;
 *  - prefetch-feedback accounting closes the loop: every page a
 *    read-ahead batch publishes is tagged speculative
 *    (PFrame::speculative); the first application pin promotes it
 *    (ra_hit), eviction of a never-pinned speculative frame counts it
 *    wasted (ra_wasted). A streak of cold deaths with no promotion
 *    throttles the file's window to zero;
 *  - ghost-hit detection lets a throttled (or too-small) window
 *    re-grow: the indices of recently wasted pages sit in a small
 *    ring, and a later miss on one of them is proof the prefetch was
 *    right and only died early — the throttle lifts and the ramp
 *    restarts.
 *
 * One tracker per CacheFile, embedded next to the radix cache it
 * describes. All pattern state lives under a private spinlock: the
 * decision points (BufferCache::readAheadFrom / submitReadAhead) run
 * on application block threads, promotion runs on whichever block pins
 * first, and waste accounting runs under the paging lock — the lock
 * here is always innermost and never held across a call out.
 *
 * A bare ReadAheadTracker keys on whatever its owner keys it on. Keyed
 * per FILE (the PR-5 design), N blocks scanning one file sequentially
 * interleave into a pattern the detector reads as random, which
 * degrades to no prefetch. ReadAheadStreams below fixes that: a
 * bounded (file, stream) table of trackers keyed on the requesting
 * block id — Linux keys readahead per `struct file`; one open per
 * reader gives it per-stream state for free, and this table is the
 * GPU-side equivalent for thousands of blocks sharing one CacheFile.
 * Each block's sequential run then ramps 2->32 independently, and one
 * block's waste throttles only its own stream.
 */

#ifndef GPUFS_GPUFS_READAHEAD_HH
#define GPUFS_GPUFS_READAHEAD_HH

#include <atomic>
#include <cstdint>
#include <cstdlib>

#include "gpufs/spinlock.hh"

namespace gpufs {
namespace core {

class ReadAheadTracker
{
  public:
    /** Misses needed at a constant stride before the window opens. */
    static constexpr unsigned kSeqRunThreshold = 2;
    /** First window granted when a run confirms; doubles per miss. */
    static constexpr unsigned kInitWindow = 2;
    /** Largest |stride| (pages) recognized as a pattern; larger jumps
     *  read as random and collapse the window. */
    static constexpr int64_t kMaxStrideMag = 8;
    /** Non-unit strides prefetch one page per RPC (the gaps must not
     *  be fetched), so their window is capped lower. */
    static constexpr unsigned kStridedWindowCap = 8;
    /** Speculative pages dying cold (evicted unpinned) with no
     *  intervening promotion before the file is throttled. */
    static constexpr unsigned kThrottleStreak = 8;
    /** Recently-wasted page indices kept for ghost-hit detection. */
    static constexpr unsigned kGhostSlots = 16;
    /** A fresh run this long un-throttles even without a ghost hit
     *  (the old waste may predate a phase change). */
    static constexpr unsigned kRethrottleRun = 16;

    static constexpr uint64_t kNoIdx = UINT64_MAX;

    /** What the decision point should do about one miss. */
    struct Decision {
        unsigned window = 0;    ///< pages to prefetch (0 = none)
        int64_t stride = 1;     ///< page step of the prefetch
        bool ghost = false;     ///< this miss hit the ghost ring
    };

    /**
     * Record a demand miss covering pages [first_idx, last_idx] (a
     * single page for the per-page path, the whole run for vectored
     * demand batches) and decide the prefetch window to issue from
     * @p last_idx. @p max_window is kMaxReadAheadPages in
     * BufferCache::planReadAhead.
     */
    Decision
    onMiss(uint64_t first_idx, uint64_t last_idx, unsigned max_window)
    {
        SpinGuard guard(lock_);
        Decision d;
        // Ghost check first: a miss on a page we prefetched and then
        // evicted unused is evidence the window was RIGHT (it died
        // early, or the throttle was too hard) — lift the throttle and
        // resume ramping instead of reading the jump as random.
        for (unsigned i = 0; i < kGhostSlots; ++i) {
            if (ghosts_[i] == first_idx) {
                ghosts_[i] = kNoIdx;
                ghostHits_.fetch_add(1, std::memory_order_relaxed);
                throttled_ = false;
                wastedStreak_ = 0;
                runLen_ = kSeqRunThreshold;
                if (stride_ == 0)
                    stride_ = 1;
                d.ghost = true;
                break;
            }
        }
        if (!d.ghost && lastIdx_ != kNoIdx) {
            int64_t delta = static_cast<int64_t>(first_idx) -
                static_cast<int64_t>(lastIdx_);
            if (delta != 0 && delta == stride_) {
                ++runLen_;
            } else if (delta != 0 && std::llabs(delta) <= kMaxStrideMag) {
                // New candidate pattern: remember the stride, but the
                // old window is dead until the run re-confirms.
                stride_ = delta;
                runLen_ = 1;
                window_ = 0;
            } else {
                // Random jump (or a re-read of the same page racing
                // another block): collapse.
                stride_ = 0;
                runLen_ = 0;
                window_ = 0;
            }
        }
        lastIdx_ = last_idx;
        if (throttled_ && runLen_ >= kRethrottleRun) {
            throttled_ = false;
            wastedStreak_ = 0;
        }
        if (runLen_ >= kSeqRunThreshold && !throttled_) {
            window_ = window_ == 0
                ? kInitWindow
                : std::min<uint32_t>(window_ * 2, max_window);
            if (window_ > max_window)
                window_ = max_window;
        }
        d.window = throttled_ ? 0 : window_;
        d.stride = stride_ == 0 ? 1 : stride_;
        if (d.stride != 1 && d.window > kStridedWindowCap)
            d.window = kStridedWindowCap;
        return d;
    }

    /**
     * Advance the last-seen cursor past a span the decision point just
     * covered (prefetched, or stepped over because resident): the next
     * sequential miss lands one stride past the window's end, and
     * without this advance the detector would read it as a jump.
     */
    void
    advance(uint64_t covered_to)
    {
        SpinGuard guard(lock_);
        lastIdx_ = covered_to;
    }

    /** A read-ahead batch published @p n speculative pages. */
    void
    notePublished(unsigned n)
    {
        issued_.fetch_add(n, std::memory_order_relaxed);
        int32_t now = specResident_.fetch_add(
                          static_cast<int32_t>(n),
                          std::memory_order_relaxed) +
            static_cast<int32_t>(n);
        int32_t peak = specPeak_.load(std::memory_order_relaxed);
        while (now > peak &&
               !specPeak_.compare_exchange_weak(
                   peak, now, std::memory_order_relaxed)) {
        }
    }

    /** A speculative page was pinned by the application (promotion). */
    void
    noteHit()
    {
        hits_.fetch_add(1, std::memory_order_relaxed);
        specResident_.fetch_sub(1, std::memory_order_relaxed);
        SpinGuard guard(lock_);
        wastedStreak_ = 0;      // prefetch proved useful
    }

    /** A speculative page was evicted (or dropped) never pinned. */
    void
    noteWasted(uint64_t page_idx)
    {
        wasted_.fetch_add(1, std::memory_order_relaxed);
        specResident_.fetch_sub(1, std::memory_order_relaxed);
        SpinGuard guard(lock_);
        ghosts_[ghostPos_] = page_idx;
        ghostPos_ = (ghostPos_ + 1) % kGhostSlots;
        if (++wastedStreak_ >= kThrottleStreak && !throttled_) {
            throttled_ = true;
            window_ = 0;
        }
    }

    /** Forget everything (file-table slot recycled for a new file). */
    void
    reset()
    {
        SpinGuard guard(lock_);
        lastIdx_ = kNoIdx;
        stride_ = 0;
        runLen_ = 0;
        window_ = 0;
        throttled_ = false;
        wastedStreak_ = 0;
        ghostPos_ = 0;
        for (auto &g : ghosts_)
            g = kNoIdx;
        issued_.store(0, std::memory_order_relaxed);
        hits_.store(0, std::memory_order_relaxed);
        wasted_.store(0, std::memory_order_relaxed);
        ghostHits_.store(0, std::memory_order_relaxed);
        specResident_.store(0, std::memory_order_relaxed);
        specPeak_.store(0, std::memory_order_relaxed);
    }

    // ---- introspection (tests, benches) ----

    unsigned
    window() const
    {
        SpinGuard guard(lock_);
        return throttled_ ? 0 : window_;
    }

    int64_t
    stride() const
    {
        SpinGuard guard(lock_);
        return stride_;
    }

    bool
    throttled() const
    {
        SpinGuard guard(lock_);
        return throttled_;
    }

    uint64_t issued() const
    {
        return issued_.load(std::memory_order_relaxed);
    }
    uint64_t hits() const
    {
        return hits_.load(std::memory_order_relaxed);
    }
    uint64_t wasted() const
    {
        return wasted_.load(std::memory_order_relaxed);
    }
    uint64_t ghostHits() const
    {
        return ghostHits_.load(std::memory_order_relaxed);
    }
    /** Published speculative pages currently resident (not yet
     *  promoted or evicted), and the high-water mark. */
    int32_t specResident() const
    {
        return specResident_.load(std::memory_order_relaxed);
    }
    int32_t specPeak() const
    {
        return specPeak_.load(std::memory_order_relaxed);
    }

  private:
    mutable SpinLock lock_;
    uint64_t lastIdx_ = kNoIdx;
    int64_t stride_ = 0;
    uint32_t runLen_ = 0;
    uint32_t window_ = 0;
    bool throttled_ = false;
    uint32_t wastedStreak_ = 0;
    uint64_t ghosts_[kGhostSlots] = {
        kNoIdx, kNoIdx, kNoIdx, kNoIdx, kNoIdx, kNoIdx, kNoIdx, kNoIdx,
        kNoIdx, kNoIdx, kNoIdx, kNoIdx, kNoIdx, kNoIdx, kNoIdx, kNoIdx};
    unsigned ghostPos_ = 0;

    // Feedback counters (atomic: promotion and eviction run on other
    // threads than the decision point).
    std::atomic<uint64_t> issued_{0};
    std::atomic<uint64_t> hits_{0};
    std::atomic<uint64_t> wasted_{0};
    std::atomic<uint64_t> ghostHits_{0};
    std::atomic<int32_t> specResident_{0};
    std::atomic<int32_t> specPeak_{0};
};

/**
 * Per-stream read-ahead: a bounded table of ReadAheadTrackers keyed on
 * a caller-chosen stream id (the requesting block id), LRU-recycled,
 * embedded one per CacheFile where the single tracker used to live.
 *
 * Pattern state (stride detector, window, throttle, ghost ring) is
 * per-stream: slot resolution happens once per demand miss at the
 * decision point, and the granted Decision carries the slot index so
 * the whole prefetch batch — publication, promotion, waste — routes
 * its feedback back to the stream that issued it (the slot index rides
 * each published frame in PFrame::raStream).
 *
 * The prefetch-feedback AGGREGATES (issued / hits / wasted / resident
 * speculative pages and their peak) are kept here, NOT summed over the
 * slots: slot recycling resets per-slot counters mid-flight, while the
 * conservation invariant (ra_issued == ra_hit + ra_wasted + resident)
 * must hold for the file regardless of how many streams came and went.
 * Feedback tagged kNoStream (static-policy batches, which never
 * resolve a stream; or frames whose stream slot was recycled) updates
 * the aggregates only — exact accounting, heuristic routing.
 *
 * Thread safety: the slot table is guarded by its own spinlock (taken
 * on resolution and introspection only, never across a call out); the
 * per-slot trackers and the aggregates carry their own synchronization
 * exactly as before.
 */
class ReadAheadStreams
{
  public:
    /** Stream slots per file: enough for every concurrently-RESIDENT
     *  scanning block (a full wave is mpCount x blocksPerMp = 28 on
     *  the modelled C2075 — below that, same-wave streams recycle
     *  each other on every miss and no window ever ramps), small
     *  enough that resolution stays a linear scan. Grids larger than
     *  a wave are fine: blocks past the wave only start when earlier
     *  ones retire, and their quiet slots are the LRU victims. */
    static constexpr unsigned kStreamSlots = 32;
    /** Feedback tag for "no stream resolved": static-policy batches,
     *  or a frame outliving its stream's recycling. */
    static constexpr uint8_t kNoStream = 0xFF;
    static constexpr uint64_t kNoKey = UINT64_MAX;

    /** A per-stream onMiss decision plus its routing: the resolved
     *  slot (tagged into every frame the batch publishes) and whether
     *  resolving it recycled a live stream (LRU victim). */
    struct Decision {
        unsigned window = 0;
        int64_t stride = 1;
        bool ghost = false;
        uint8_t stream = kNoStream;
        bool recycled = false;
    };

    /**
     * Resolve @p stream_key (the requesting block id) to a slot —
     * reusing its live slot, claiming a free one, or recycling the
     * LRU victim — and feed the miss to that stream's tracker.
     */
    Decision
    onMiss(uint64_t stream_key, uint64_t first_idx, uint64_t last_idx,
           unsigned max_window)
    {
        Decision d;
        uint8_t s = resolve(stream_key, &d.recycled);
        ReadAheadTracker::Decision td =
            slots_[s].tracker.onMiss(first_idx, last_idx, max_window);
        d.window = td.window;
        d.stride = td.stride;
        d.ghost = td.ghost;
        d.stream = s;
        if (td.ghost)
            ghostHits_.fetch_add(1, std::memory_order_relaxed);
        return d;
    }

    /** Advance @p stream's cursor past a covered span (see
     *  ReadAheadTracker::advance). No-op for kNoStream. */
    void
    advance(uint8_t stream, uint64_t covered_to)
    {
        if (stream < kStreamSlots)
            slots_[stream].tracker.advance(covered_to);
    }

    /** A read-ahead batch attributed to @p stream published @p n
     *  speculative pages. Aggregates always update; the stream's own
     *  tracker only when one was resolved. */
    void
    notePublished(uint8_t stream, unsigned n)
    {
        issued_.fetch_add(n, std::memory_order_relaxed);
        int32_t now = specResident_.fetch_add(
                          static_cast<int32_t>(n),
                          std::memory_order_relaxed) +
            static_cast<int32_t>(n);
        int32_t peak = specPeak_.load(std::memory_order_relaxed);
        while (now > peak &&
               !specPeak_.compare_exchange_weak(
                   peak, now, std::memory_order_relaxed)) {
        }
        if (stream < kStreamSlots)
            slots_[stream].tracker.notePublished(n);
    }

    /** A speculative page tagged @p stream was promoted by a pin.
     *  Promotion also refreshes the slot's LRU stamp: a block riding a
     *  full window misses only once per window, and without this an
     *  ACTIVE stream looks idle between misses and gets recycled by
     *  newly arriving blocks — losing its ramp mid-scan. */
    void
    noteHit(uint8_t stream)
    {
        hits_.fetch_add(1, std::memory_order_relaxed);
        specResident_.fetch_sub(1, std::memory_order_relaxed);
        if (stream < kStreamSlots) {
            slots_[stream].tracker.noteHit();
            // Advance the clock, don't just read it: misses are rare
            // once windows are open, and same-stamp ties would make
            // the LRU scan's victim pick arbitrary among every live
            // stream instead of the genuinely stale one.
            slots_[stream].lastUse.store(
                clock_.fetch_add(1, std::memory_order_relaxed) + 1,
                std::memory_order_relaxed);
        }
    }

    /** A speculative page tagged @p stream died unpinned. The waste
     *  streak and ghost ring are the tagged stream's own — one block's
     *  cold deaths throttle only its window. */
    void
    noteWasted(uint8_t stream, uint64_t page_idx)
    {
        wasted_.fetch_add(1, std::memory_order_relaxed);
        specResident_.fetch_sub(1, std::memory_order_relaxed);
        if (stream < kStreamSlots)
            slots_[stream].tracker.noteWasted(page_idx);
    }

    /**
     * The stream's owner is done with the file (gclose): free its slot
     * NOW instead of waiting for LRU pressure. Recency alone cannot
     * tell a retired stream from a live one stalled on its next window
     * fetch — a retiring block hits (promotes) until its very last
     * page, so under block churn the LRU victim would often be a live
     * stream mid-stall, costing it its ramp. With an explicit release
     * at close, arriving blocks find a free slot and live streams are
     * never victimized while the table is at or under capacity.
     * Frames still tagged with the slot keep updating the aggregates
     * exactly; their per-stream routing hits a reset tracker (same
     * bounded heuristic error as LRU recycling).
     */
    void
    release(uint64_t stream_key)
    {
        SpinGuard guard(lock_);
        for (auto &s : slots_) {
            if (s.key == stream_key) {
                s.key = kNoKey;
                s.lastUse.store(0, std::memory_order_relaxed);
                s.tracker.reset();
                active_.fetch_sub(1, std::memory_order_relaxed);
                return;
            }
        }
    }

    /** Forget everything (file-table slot recycled for a new file). */
    void
    reset()
    {
        SpinGuard guard(lock_);
        for (auto &s : slots_) {
            s.key = kNoKey;
            s.lastUse.store(0, std::memory_order_relaxed);
            s.tracker.reset();
        }
        clock_.store(0, std::memory_order_relaxed);
        mru_ = 0;
        active_.store(0, std::memory_order_relaxed);
        recycles_.store(0, std::memory_order_relaxed);
        issued_.store(0, std::memory_order_relaxed);
        hits_.store(0, std::memory_order_relaxed);
        wasted_.store(0, std::memory_order_relaxed);
        ghostHits_.store(0, std::memory_order_relaxed);
        specResident_.store(0, std::memory_order_relaxed);
        specPeak_.store(0, std::memory_order_relaxed);
    }

    // ---- introspection (tests, benches) ----
    //
    // window/stride/throttled report the MOST RECENTLY USED stream —
    // with a single scanning block that is the one stream there is,
    // which keeps the single-stream e2e assertions meaningful.

    unsigned
    window() const
    {
        return mruTracker().window();
    }

    int64_t
    stride() const
    {
        return mruTracker().stride();
    }

    bool
    throttled() const
    {
        return mruTracker().throttled();
    }

    /** The live tracker of @p stream_key, or nullptr when the key
     *  holds no slot (never resolved, or recycled away). */
    const ReadAheadTracker *
    stream(uint64_t stream_key) const
    {
        SpinGuard guard(lock_);
        for (const auto &s : slots_) {
            if (s.key == stream_key)
                return &s.tracker;
        }
        return nullptr;
    }

    /** Streams currently holding a slot / live-slot LRU recycles. */
    unsigned
    streamsActive() const
    {
        return active_.load(std::memory_order_relaxed);
    }
    uint64_t
    streamRecycles() const
    {
        return recycles_.load(std::memory_order_relaxed);
    }

    // Aggregate prefetch feedback (conservation-authoritative).
    uint64_t issued() const
    {
        return issued_.load(std::memory_order_relaxed);
    }
    uint64_t hits() const
    {
        return hits_.load(std::memory_order_relaxed);
    }
    uint64_t wasted() const
    {
        return wasted_.load(std::memory_order_relaxed);
    }
    uint64_t ghostHits() const
    {
        return ghostHits_.load(std::memory_order_relaxed);
    }
    int32_t specResident() const
    {
        return specResident_.load(std::memory_order_relaxed);
    }
    int32_t specPeak() const
    {
        return specPeak_.load(std::memory_order_relaxed);
    }

  private:
    struct Slot {
        uint64_t key = kNoKey;
        /** Atomic: refreshed by noteHit from promoter threads without
         *  the table lock; resolve()'s LRU scan tolerates the race (a
         *  stale read only mis-ranks one victim candidate). */
        std::atomic<uint64_t> lastUse{0};
        ReadAheadTracker tracker;
    };

    /** Find @p key's slot, claiming/recycling as needed. */
    uint8_t
    resolve(uint64_t key, bool *recycled)
    {
        SpinGuard guard(lock_);
        uint64_t now =
            clock_.fetch_add(1, std::memory_order_relaxed) + 1;
        unsigned free_slot = kStreamSlots;
        unsigned lru = 0;
        uint64_t lru_use = UINT64_MAX;
        for (unsigned i = 0; i < kStreamSlots; ++i) {
            if (slots_[i].key == key) {
                slots_[i].lastUse.store(now, std::memory_order_relaxed);
                mru_ = i;
                return static_cast<uint8_t>(i);
            }
            if (slots_[i].key == kNoKey) {
                if (free_slot == kStreamSlots)
                    free_slot = i;
            } else {
                uint64_t use =
                    slots_[i].lastUse.load(std::memory_order_relaxed);
                if (use < lru_use) {
                    lru_use = use;
                    lru = i;
                }
            }
        }
        unsigned s;
        if (free_slot != kStreamSlots) {
            s = free_slot;
            active_.fetch_add(1, std::memory_order_relaxed);
        } else {
            // Recycle the LRU victim: its pattern state describes a
            // stream that went quiet. Frames still tagged with this
            // slot keep updating the aggregates exactly; their
            // per-stream routing goes to the new tenant — a bounded
            // heuristic error, not an accounting one.
            s = lru;
            recycles_.fetch_add(1, std::memory_order_relaxed);
            *recycled = true;
        }
        slots_[s].key = key;
        slots_[s].lastUse.store(now, std::memory_order_relaxed);
        slots_[s].tracker.reset();
        mru_ = s;
        return static_cast<uint8_t>(s);
    }

    const ReadAheadTracker &
    mruTracker() const
    {
        SpinGuard guard(lock_);
        return slots_[mru_].tracker;
    }

    mutable SpinLock lock_;
    Slot slots_[kStreamSlots];
    std::atomic<uint64_t> clock_{0};
    unsigned mru_ = 0;
    std::atomic<unsigned> active_{0};
    std::atomic<uint64_t> recycles_{0};

    // Aggregate feedback counters (see class comment: authoritative
    // for conservation; never reset by slot recycling).
    std::atomic<uint64_t> issued_{0};
    std::atomic<uint64_t> hits_{0};
    std::atomic<uint64_t> wasted_{0};
    std::atomic<uint64_t> ghostHits_{0};
    std::atomic<int32_t> specResident_{0};
    std::atomic<int32_t> specPeak_{0};
};

} // namespace core
} // namespace gpufs

#endif // GPUFS_GPUFS_READAHEAD_HH
