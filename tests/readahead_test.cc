/**
 * @file
 * Adaptive per-file read-ahead: the tracker state machine (ramp,
 * collapse, stride, throttle, ghost re-grow), the prefetch-feedback
 * accounting invariants, shard-group clipping, and the adaptive-vs-
 * static RPC-count pins that show "adaptive never hurts".
 */

#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <vector>

#include "gpufs/readahead.hh"
#include "gpufs/system.hh"
#include "rpc/daemon.hh"
#include "tests/testutil.hh"

namespace gpufs {
namespace core {
namespace {

constexpr unsigned kMaxWin = 32;    // BufferCache::planReadAhead's ceiling

// ---------------------------------------------------------------------
// Tracker state machine (pure unit tests).
// ---------------------------------------------------------------------

TEST(ReadAheadTrackerTest, SequentialRampReachesMaxWindow)
{
    ReadAheadTracker t;
    // Two misses establish the stride; the window opens on the run's
    // confirmation and doubles per subsequent miss up to the cap.
    EXPECT_EQ(0u, t.onMiss(0, 0, kMaxWin).window);
    EXPECT_EQ(0u, t.onMiss(1, 1, kMaxWin).window);
    EXPECT_EQ(2u, t.onMiss(2, 2, kMaxWin).window);
    EXPECT_EQ(4u, t.onMiss(3, 3, kMaxWin).window);
    EXPECT_EQ(8u, t.onMiss(4, 4, kMaxWin).window);
    EXPECT_EQ(16u, t.onMiss(5, 5, kMaxWin).window);
    EXPECT_EQ(32u, t.onMiss(6, 6, kMaxWin).window);
    EXPECT_EQ(32u, t.onMiss(7, 7, kMaxWin).window);     // capped
    EXPECT_EQ(1, t.onMiss(8, 8, kMaxWin).stride);
}

TEST(ReadAheadTrackerTest, RandomAccessCollapsesWindowImmediately)
{
    ReadAheadTracker t;
    for (uint64_t i = 0; i <= 6; ++i)
        t.onMiss(i, i, kMaxWin);
    EXPECT_EQ(32u, t.window());
    // One jump beyond the stride-recognition range kills the window.
    EXPECT_EQ(0u, t.onMiss(1000, 1000, kMaxWin).window);
    EXPECT_EQ(0u, t.window());
    // And further random misses keep it closed.
    EXPECT_EQ(0u, t.onMiss(37, 37, kMaxWin).window);
    EXPECT_EQ(0u, t.onMiss(512, 512, kMaxWin).window);
}

TEST(ReadAheadTrackerTest, PatternBreakWithinStrideRangeReRamps)
{
    ReadAheadTracker t;
    for (uint64_t i = 0; i <= 4; ++i)
        t.onMiss(i, i, kMaxWin);
    EXPECT_EQ(8u, t.window());
    // A nearby jump reads as a NEW candidate stride: the old window
    // dies, the ramp restarts once the new stride confirms.
    EXPECT_EQ(0u, t.onMiss(8, 8, kMaxWin).window);      // delta 4
    EXPECT_EQ(2u, t.onMiss(12, 12, kMaxWin).window);    // 4 confirmed
    EXPECT_EQ(4, t.onMiss(16, 16, kMaxWin).stride);
}

TEST(ReadAheadTrackerTest, StrideTwoDetectedAndWindowCapped)
{
    ReadAheadTracker t;
    t.onMiss(0, 0, kMaxWin);
    t.onMiss(2, 2, kMaxWin);                            // candidate
    ReadAheadTracker::Decision d = t.onMiss(4, 4, kMaxWin);
    EXPECT_EQ(2u, d.window);
    EXPECT_EQ(2, d.stride);
    // Strided prefetch is one page per RPC: the window stays capped
    // below the contiguous ramp's ceiling.
    for (uint64_t i = 6; i <= 30; i += 2)
        d = t.onMiss(i, i, kMaxWin);
    EXPECT_EQ(ReadAheadTracker::kStridedWindowCap, d.window);

    // Backward scans are strides too.
    ReadAheadTracker back;
    back.onMiss(100, 100, kMaxWin);
    back.onMiss(99, 99, kMaxWin);
    d = back.onMiss(98, 98, kMaxWin);
    EXPECT_EQ(2u, d.window);
    EXPECT_EQ(-1, d.stride);
}

TEST(ReadAheadTrackerTest, WasteStreakThrottlesAndGhostHitRegrows)
{
    ReadAheadTracker t;
    for (uint64_t i = 0; i <= 4; ++i)
        t.onMiss(i, i, kMaxWin);
    t.notePublished(8);
    EXPECT_EQ(8u, t.window());
    // Eight prefetched pages die cold with no promotion: throttle.
    for (uint64_t idx = 5; idx < 5 + ReadAheadTracker::kThrottleStreak;
         ++idx) {
        t.noteWasted(idx);
    }
    EXPECT_TRUE(t.throttled());
    EXPECT_EQ(0u, t.window());
    // Throttled files keep tracking but grant no window...
    EXPECT_EQ(0u, t.onMiss(100, 100, kMaxWin).window);
    EXPECT_EQ(0u, t.onMiss(101, 101, kMaxWin).window);
    EXPECT_EQ(0u, t.onMiss(102, 102, kMaxWin).window);
    // ...until a miss lands on a recently-wasted page: proof the
    // prefetch was right and only died early. The throttle lifts and
    // the ramp restarts.
    ReadAheadTracker::Decision d = t.onMiss(7, 7, kMaxWin);
    EXPECT_TRUE(d.ghost);
    EXPECT_GE(d.window, ReadAheadTracker::kInitWindow);
    EXPECT_FALSE(t.throttled());
    EXPECT_EQ(1u, t.ghostHits());
}

TEST(ReadAheadTrackerTest, LongFreshRunAlsoLiftsThrottle)
{
    ReadAheadTracker t;
    for (uint64_t i = 0; i <= 3; ++i)
        t.onMiss(i, i, kMaxWin);
    for (unsigned k = 0; k < ReadAheadTracker::kThrottleStreak; ++k)
        t.noteWasted(1000 + k);
    ASSERT_TRUE(t.throttled());
    // A long sequential run far from the ghosts (a phase change) earns
    // the window back without a ghost hit.
    uint64_t idx = 5000;
    ReadAheadTracker::Decision d;
    for (unsigned k = 0; k <= ReadAheadTracker::kRethrottleRun; ++k)
        d = t.onMiss(idx + k, idx + k, kMaxWin);
    EXPECT_FALSE(t.throttled());
    EXPECT_GT(d.window, 0u);
}

TEST(ReadAheadTrackerTest, AdvanceKeepsContinuityAcrossPrefetchedSpan)
{
    ReadAheadTracker t;
    t.onMiss(0, 0, kMaxWin);
    t.onMiss(1, 1, kMaxWin);
    EXPECT_EQ(2u, t.onMiss(2, 2, kMaxWin).window);
    // The decision point prefetched pages 3..4 and advanced; the next
    // miss at 5 must read as a continuation, not a +3 jump.
    t.advance(4);
    EXPECT_EQ(4u, t.onMiss(5, 5, kMaxWin).window);
}

TEST(ReadAheadTrackerTest, PromotionResetsWasteStreak)
{
    ReadAheadTracker t;
    t.notePublished(ReadAheadTracker::kThrottleStreak + 2);
    for (unsigned k = 0; k + 1 < ReadAheadTracker::kThrottleStreak; ++k)
        t.noteWasted(k);
    EXPECT_FALSE(t.throttled());
    t.noteHit();    // one promotion interrupts the cold streak
    t.noteWasted(99);
    EXPECT_FALSE(t.throttled());
    EXPECT_EQ(1u, t.hits());
    EXPECT_EQ(ReadAheadTracker::kThrottleStreak, t.wasted());
}

// ---------------------------------------------------------------------
// End-to-end: the default (adaptive) policy through the full stack.
// ---------------------------------------------------------------------

std::unique_ptr<GpufsSystem>
adaptiveSystem(uint64_t cache_bytes = 16 * MiB)
{
    GpuFsParams p;
    p.pageSize = 16 * KiB;
    p.cacheBytes = cache_bytes;
    // Default: readAheadPages unset, i.e. adaptive.
    return std::make_unique<GpufsSystem>(1, p);
}

uint64_t
counterOf(GpuFs &fs, const char *name)
{
    return fs.stats().counter(name).get();
}

TEST(ReadAheadE2eTest, SequentialScanRampsAndNeverWastes)
{
    constexpr uint64_t kPage = 16 * KiB;
    constexpr uint64_t kPages = 64;
    auto sys = adaptiveSystem();
    test::addRamp(sys->hostFs(), "/seq", kPages * kPage);
    auto ctx = test::makeBlock(sys->device(0));
    int fd = sys->fs().gopen(ctx, "/seq", G_RDONLY);
    ASSERT_GE(fd, 0);
    std::vector<uint8_t> buf(kPage);
    for (uint64_t pg = 0; pg < kPages; ++pg) {
        ASSERT_EQ(int64_t(kPage),
                  sys->fs().gread(ctx, fd, pg * kPage, kPage, buf.data()));
        for (size_t i = 0; i < buf.size(); i += 1021)
            ASSERT_EQ(test::rampByte(pg * kPage + i), buf[i]);
    }
    // Every page fetched exactly once, far fewer RPCs than pages.
    EXPECT_EQ(kPages, counterOf(sys->fs(), "cache_misses"));
    uint64_t rpcs = counterOf(sys->fs(), "read_rpcs") +
        counterOf(sys->fs(), "batch_read_rpcs");
    EXPECT_LE(rpcs * 2, kPages);
    // The window ramped to the ceiling and nothing was wasted: every
    // speculative page was promoted by the scan behind it.
    const ReadAheadStreams *t = sys->fs().readAheadTracker(fd);
    ASSERT_NE(nullptr, t);
    EXPECT_EQ(32u, t->window());
    EXPECT_GT(counterOf(sys->fs(), "ra_issued"), 0u);
    EXPECT_EQ(counterOf(sys->fs(), "ra_issued"),
              counterOf(sys->fs(), "ra_hit"));
    EXPECT_EQ(0u, counterOf(sys->fs(), "ra_wasted"));
    sys->fs().gclose(ctx, fd);
}

TEST(ReadAheadE2eTest, RandomAccessCollapsesToZeroWithinFewMisses)
{
    constexpr uint64_t kPage = 16 * KiB;
    constexpr uint64_t kPages = 256;
    auto sys = adaptiveSystem();
    test::addRamp(sys->hostFs(), "/rand", kPages * kPage);
    auto ctx = test::makeBlock(sys->device(0));
    int fd = sys->fs().gopen(ctx, "/rand", G_RDONLY);
    ASSERT_GE(fd, 0);
    // Far-apart single-page reads: the pattern never confirms, so the
    // window stays shut and not one speculative page is issued.
    const uint64_t order[] = {200, 17, 140, 3, 77, 251, 33, 180, 99, 60};
    std::vector<uint8_t> buf(kPage);
    unsigned unique = 0;
    for (uint64_t pg : order) {
        ASSERT_EQ(int64_t(kPage),
                  sys->fs().gread(ctx, fd, pg * kPage, kPage, buf.data()));
        ++unique;
    }
    const ReadAheadStreams *t = sys->fs().readAheadTracker(fd);
    ASSERT_NE(nullptr, t);
    EXPECT_EQ(0u, t->window());
    EXPECT_EQ(0u, counterOf(sys->fs(), "ra_issued"));
    // Fetch exactly what was touched — the fig6 regression criterion.
    EXPECT_EQ(unique, counterOf(sys->fs(), "cache_misses"));
    sys->fs().gclose(ctx, fd);
}

TEST(ReadAheadE2eTest, StrideTwoScanFetchesOnlyTouchedPages)
{
    constexpr uint64_t kPage = 16 * KiB;
    constexpr uint64_t kPages = 64;
    auto sys = adaptiveSystem();
    test::addRamp(sys->hostFs(), "/stride", kPages * kPage);
    auto ctx = test::makeBlock(sys->device(0));
    int fd = sys->fs().gopen(ctx, "/stride", G_RDONLY);
    ASSERT_GE(fd, 0);
    std::vector<uint8_t> buf(kPage);
    for (uint64_t pg = 0; pg < kPages; pg += 2) {
        ASSERT_EQ(int64_t(kPage),
                  sys->fs().gread(ctx, fd, pg * kPage, kPage, buf.data()));
        for (size_t i = 0; i < buf.size(); i += 997)
            ASSERT_EQ(test::rampByte(pg * kPage + i), buf[i]);
    }
    const ReadAheadStreams *t = sys->fs().readAheadTracker(fd);
    ASSERT_NE(nullptr, t);
    EXPECT_EQ(2, t->stride());
    EXPECT_GT(t->window(), 0u);
    EXPECT_GT(counterOf(sys->fs(), "ra_issued"), 0u);
    // The defining property: the gap pages were NEVER fetched — a
    // contiguous window here would transfer twice the data.
    EXPECT_EQ(kPages / 2, counterOf(sys->fs(), "cache_misses"));
    EXPECT_EQ(0u, counterOf(sys->fs(), "ra_wasted"));
    sys->fs().gclose(ctx, fd);
}

TEST(ReadAheadE2eTest, GhostHitRegrowsThrottledWindow)
{
    constexpr uint64_t kPage = 16 * KiB;
    constexpr uint64_t kPages = 64;
    auto sys = adaptiveSystem();
    test::addRamp(sys->hostFs(), "/ghost", kPages * kPage);
    auto ctx = test::makeBlock(sys->device(0));
    int fd = sys->fs().gopen(ctx, "/ghost", G_RDONLY);
    ASSERT_GE(fd, 0);
    std::vector<uint8_t> buf(kPage);
    // Scan pages 0..10: the ramp reaches window 8 at the miss on page
    // 10, which prefetches 11..18 — we stop reading there, so exactly
    // those 8 speculative pages sit unpromoted.
    for (uint64_t pg = 0; pg <= 10; ++pg) {
        ASSERT_EQ(int64_t(kPage),
                  sys->fs().gread(ctx, fd, pg * kPage, kPage, buf.data()));
    }
    ASSERT_EQ(ReadAheadTracker::kThrottleStreak,
              counterOf(sys->fs(), "ra_issued") -
                  counterOf(sys->fs(), "ra_hit"));

    // Evict everything: the 8 never-pinned speculative frames die cold
    // — enough of a streak to throttle the file.
    sys->fs().bufferCache().reclaimFrames(ctx, 1024);
    EXPECT_EQ(uint64_t(ReadAheadTracker::kThrottleStreak),
              counterOf(sys->fs(), "ra_wasted"));
    const ReadAheadStreams *t = sys->fs().readAheadTracker(fd);
    ASSERT_NE(nullptr, t);
    EXPECT_TRUE(t->throttled());
    EXPECT_EQ(0u, t->window());

    // Resume the scan: the first miss lands on page 11 — a ghost. The
    // throttle lifts, the window re-grows, prefetch resumes.
    uint64_t issued_before = counterOf(sys->fs(), "ra_issued");
    for (uint64_t pg = 11; pg < kPages; ++pg) {
        ASSERT_EQ(int64_t(kPage),
                  sys->fs().gread(ctx, fd, pg * kPage, kPage, buf.data()));
        for (size_t i = 0; i < buf.size(); i += 1021)
            ASSERT_EQ(test::rampByte(pg * kPage + i), buf[i]);
    }
    EXPECT_GE(counterOf(sys->fs(), "ra_ghost_hits"), 1u);
    EXPECT_FALSE(t->throttled());
    EXPECT_GT(t->window(), 0u);
    EXPECT_GT(counterOf(sys->fs(), "ra_issued"), issued_before);
    sys->fs().gclose(ctx, fd);
}

TEST(ReadAheadE2eTest, WastedCounterMatchesEvictedUnusedExactly)
{
    constexpr uint64_t kPage = 16 * KiB;
    constexpr uint64_t kPages = 96;
    auto sys = adaptiveSystem();
    test::addRamp(sys->hostFs(), "/acct", kPages * kPage);
    auto ctx = test::makeBlock(sys->device(0));
    int fd = sys->fs().gopen(ctx, "/acct", G_RDONLY);
    ASSERT_GE(fd, 0);
    std::vector<uint8_t> buf(kPage);
    // Ramp deep into the file, then abandon the scan mid-window so a
    // tail of speculative pages is left unread.
    for (uint64_t pg = 0; pg <= 40; ++pg) {
        ASSERT_EQ(int64_t(kPage),
                  sys->fs().gread(ctx, fd, pg * kPage, kPage, buf.data()));
    }
    uint64_t issued = counterOf(sys->fs(), "ra_issued");
    uint64_t hit = counterOf(sys->fs(), "ra_hit");
    ASSERT_GT(issued, hit);     // unread speculative tail exists

    // Evict the whole cache: every published speculative page must now
    // be accounted — promoted earlier, or wasted by this eviction.
    sys->fs().bufferCache().reclaimFrames(ctx, 4096);
    EXPECT_EQ(issued, counterOf(sys->fs(), "ra_hit") +
                          counterOf(sys->fs(), "ra_wasted"));
    EXPECT_EQ(issued - hit, counterOf(sys->fs(), "ra_wasted"));
    // The per-file tracker agrees with the StatSet.
    const ReadAheadStreams *t = sys->fs().readAheadTracker(fd);
    ASSERT_NE(nullptr, t);
    EXPECT_EQ(t->issued(), t->hits() + t->wasted());
    EXPECT_EQ(0, t->specResident());
    sys->fs().gclose(ctx, fd);
}

TEST(ReadAheadE2eTest, VectoredSequentialReadsRampToo)
{
    constexpr uint64_t kPage = 16 * KiB;
    constexpr uint64_t kPages = 64;
    auto sys = adaptiveSystem();
    test::addRamp(sys->hostFs(), "/vec", kPages * kPage);
    auto ctx = test::makeBlock(sys->device(0));
    int fd = sys->fs().gopen(ctx, "/vec", G_RDONLY);
    ASSERT_GE(fd, 0);
    std::vector<uint8_t> buf(4 * kPage);
    for (uint64_t pg = 0; pg < kPages; pg += 4) {
        GIoVec iov{pg * kPage, buf.size(), buf.data()};
        ASSERT_EQ(int64_t(buf.size()), sys->fs().greadv(ctx, fd, &iov, 1));
        for (size_t i = 0; i < buf.size(); i += 2039)
            ASSERT_EQ(test::rampByte(pg * kPage + i), buf[i]);
    }
    // Demand runs feed the tracker as one miss each, so the 4-page
    // chunks read as a sequential stream and the window opens.
    EXPECT_GT(counterOf(sys->fs(), "ra_issued"), 0u);
    EXPECT_EQ(kPages, counterOf(sys->fs(), "cache_misses"));
    EXPECT_EQ(0u, counterOf(sys->fs(), "ra_wasted"));
    sys->fs().gclose(ctx, fd);
}

// ---------------------------------------------------------------------
// The never-hurts pins: adaptive vs static RPC counts.
// ---------------------------------------------------------------------

struct ScanCounts {
    uint64_t readRpcs;
    uint64_t batchRpcs;
    uint64_t total() const { return readRpcs + batchRpcs; }
};

ScanCounts
scan256(std::optional<unsigned> read_ahead)
{
    constexpr uint64_t kPage = 16 * KiB;
    constexpr uint64_t kPages = 256;
    GpuFsParams p;
    p.pageSize = kPage;
    p.cacheBytes = (kPages + 64) * kPage;
    p.readAheadPages = read_ahead;
    GpufsSystem sys(1, p);
    test::addRamp(sys.hostFs(), "/s256", kPages * kPage);
    auto ctx = test::makeBlock(sys.device(0));
    int fd = sys.fs().gopen(ctx, "/s256", G_RDONLY);
    EXPECT_GE(fd, 0);
    std::vector<uint8_t> buf(kPage);
    for (uint64_t pg = 0; pg < kPages; ++pg) {
        EXPECT_EQ(int64_t(kPage),
                  sys.fs().gread(ctx, fd, pg * kPage, kPage, buf.data()));
    }
    EXPECT_EQ(kPages, sys.fs().stats().counter("cache_misses").get());
    ScanCounts c;
    c.readRpcs = sys.fs().stats().counter("read_rpcs").get();
    c.batchRpcs = sys.fs().stats().counter("batch_read_rpcs").get();
    sys.fs().gclose(ctx, fd);
    return c;
}

TEST(ReadAheadE2eTest, AdaptiveMatchesTunedStaticOn256PageScan)
{
    // Adaptive's exact shape on a cold 256-page sequential scan:
    // demand misses at 0,1,2 then at each window edge (5, 10, 19, 36,
    // then every 33 pages) — 13 ReadPage RPCs; windows 2,4,8,16 are
    // one ReadPages batch each, the seven 32-page windows two batches
    // each (kMaxBatchPages=16): 18 batches. 31 RPCs total.
    ScanCounts adaptive = scan256(std::nullopt);
    EXPECT_EQ(13u, adaptive.readRpcs);
    EXPECT_EQ(18u, adaptive.batchRpcs);

    // The hand-tuned static window (16, the best of fig4's sweep)
    // costs 16 demand + 15 batch = the same 31 RPCs — and pays them
    // on RANDOM workloads too, which adaptive does not.
    ScanCounts tuned = scan256(16);
    EXPECT_EQ(31u, tuned.total());
    EXPECT_LE(adaptive.total(), tuned.total());

    // Unassisted demand paging for perspective: one RPC per page.
    ScanCounts off = scan256(0);
    EXPECT_EQ(256u, off.readRpcs);
    EXPECT_EQ(0u, off.batchRpcs);
}

// ---------------------------------------------------------------------
// The per-(file, stream) table: interleaved block streams must ramp
// independently where a single per-file tracker read them as random.
// ---------------------------------------------------------------------

TEST(ReadAheadStreamsTest, TwoInterleavedStreamsRampIndependently)
{
    ReadAheadStreams rs;
    // Blocks 7 and 12 scan disjoint regions, misses interleaved
    // round-robin — the access pattern a per-file tracker sees as
    // alternating +/-10000 jumps and never opens a window for.
    ReadAheadStreams::Decision a, b;
    for (uint64_t i = 0; i <= 6; ++i) {
        a = rs.onMiss(7, i, i, kMaxWin);
        b = rs.onMiss(12, 10000 + i, 10000 + i, kMaxWin);
    }
    EXPECT_EQ(32u, a.window);
    EXPECT_EQ(32u, b.window);
    EXPECT_NE(a.stream, b.stream);
    EXPECT_EQ(2u, rs.streamsActive());
    EXPECT_EQ(0u, rs.streamRecycles());
    // Per-key introspection agrees.
    ASSERT_NE(nullptr, rs.stream(7));
    ASSERT_NE(nullptr, rs.stream(12));
    EXPECT_EQ(32u, rs.stream(7)->window());
    EXPECT_EQ(32u, rs.stream(12)->window());
    EXPECT_EQ(nullptr, rs.stream(99));
}

TEST(ReadAheadStreamsTest, EightWayRoundRobinAllReachFullWindow)
{
    ReadAheadStreams rs;
    constexpr unsigned kStreams = 8;
    ReadAheadStreams::Decision d[kStreams];
    for (uint64_t i = 0; i <= 6; ++i) {
        for (unsigned s = 0; s < kStreams; ++s)
            d[s] = rs.onMiss(s, s * 100000 + i, s * 100000 + i, kMaxWin);
    }
    for (unsigned s = 0; s < kStreams; ++s)
        EXPECT_EQ(32u, d[s].window) << "stream " << s;
    EXPECT_EQ(kStreams, rs.streamsActive());
    EXPECT_EQ(0u, rs.streamRecycles());
}

TEST(ReadAheadStreamsTest, TableOverflowRecyclesLruSlot)
{
    ReadAheadStreams rs;
    // Fill every slot; key k's last use is ordered by k.
    for (uint64_t k = 0; k < ReadAheadStreams::kStreamSlots; ++k)
        rs.onMiss(k, k * 1000, k * 1000, kMaxWin);
    EXPECT_EQ(ReadAheadStreams::kStreamSlots, rs.streamsActive());

    // A brand-new key must evict key 0 — the LRU — and report it.
    ReadAheadStreams::Decision d =
        rs.onMiss(500, 777, 777, kMaxWin);
    EXPECT_TRUE(d.recycled);
    EXPECT_EQ(1u, rs.streamRecycles());
    EXPECT_EQ(ReadAheadStreams::kStreamSlots, rs.streamsActive());
    EXPECT_EQ(nullptr, rs.stream(0));
    ASSERT_NE(nullptr, rs.stream(500));
    // The recycled slot starts from scratch: no inherited ramp.
    EXPECT_EQ(0u, rs.stream(500)->window());

    // Key 0 coming back claims another victim (key 1 now) and also
    // restarts cold — stale state never leaks across tenants.
    d = rs.onMiss(0, 3, 3, kMaxWin);
    EXPECT_TRUE(d.recycled);
    EXPECT_EQ(0u, d.window);
    EXPECT_EQ(nullptr, rs.stream(1));
}

TEST(ReadAheadStreamsTest, ThrottleIsolatedToOneStream)
{
    ReadAheadStreams rs;
    // Both streams ramp, then every speculative page attributed to
    // stream A dies cold while B keeps promoting.
    ReadAheadStreams::Decision a, b;
    for (uint64_t i = 0; i <= 4; ++i) {
        a = rs.onMiss(1, i, i, kMaxWin);
        b = rs.onMiss(2, 50000 + i, 50000 + i, kMaxWin);
    }
    rs.notePublished(a.stream, 8);
    rs.notePublished(b.stream, 8);
    for (unsigned k = 0; k < ReadAheadTracker::kThrottleStreak; ++k)
        rs.noteWasted(a.stream, 5 + k);
    for (unsigned k = 0; k < 8; ++k)
        rs.noteHit(b.stream);

    EXPECT_TRUE(rs.stream(1)->throttled());
    EXPECT_FALSE(rs.stream(2)->throttled());
    // A's window is gone; B's next miss still gets a full window.
    EXPECT_EQ(0u, rs.onMiss(1, 100, 100, kMaxWin).window);
    EXPECT_EQ(16u, rs.onMiss(2, 50005, 50005, kMaxWin).window);

    // Aggregates stay conservation-exact across both streams:
    // 16 issued = 8 hits + 8 wasted, nothing resident.
    EXPECT_EQ(16u, rs.issued());
    EXPECT_EQ(8u, rs.hits());
    EXPECT_EQ(8u, rs.wasted());
    EXPECT_EQ(0, rs.specResident());
}

TEST(ReadAheadStreamsTest, StaleStreamFeedbackKeepsAggregatesExact)
{
    ReadAheadStreams rs;
    ReadAheadStreams::Decision d = rs.onMiss(3, 0, 0, kMaxWin);
    rs.notePublished(d.stream, 4);
    // Evict key 3 by overflowing the table; frames tagged with its
    // slot are still in flight.
    for (uint64_t k = 100; k < 100 + ReadAheadStreams::kStreamSlots;
         ++k) {
        rs.onMiss(k, k, k, kMaxWin);
    }
    EXPECT_EQ(nullptr, rs.stream(3));
    // Their feedback routes to the slot's NEW tenant (bounded
    // heuristic error) but the aggregates never drift.
    rs.noteHit(d.stream);
    rs.noteWasted(d.stream, 1);
    rs.noteWasted(d.stream, 2);
    rs.noteWasted(d.stream, 3);
    EXPECT_EQ(4u, rs.issued());
    EXPECT_EQ(1u, rs.hits());
    EXPECT_EQ(3u, rs.wasted());
    EXPECT_EQ(0, rs.specResident());
    // kNoStream feedback (static policy / fully stale tags) is
    // aggregate-only and equally exact.
    rs.notePublished(ReadAheadStreams::kNoStream, 2);
    rs.noteHit(ReadAheadStreams::kNoStream);
    rs.noteWasted(ReadAheadStreams::kNoStream, 9);
    EXPECT_EQ(6u, rs.issued());
    EXPECT_EQ(2u, rs.hits());
    EXPECT_EQ(4u, rs.wasted());
    EXPECT_EQ(0, rs.specResident());
}

// ---------------------------------------------------------------------
// End-to-end: two blocks interleaving region scans of ONE file both
// ramp — the cross-block scaling property the stream table exists for.
// ---------------------------------------------------------------------

TEST(ReadAheadE2eTest, TwoBlockSharedFileScanRampsBothStreams)
{
    constexpr uint64_t kPage = 16 * KiB;
    constexpr uint64_t kPagesPerBlock = 64;
    auto sys = adaptiveSystem(4 * 16 * MiB);
    test::addRamp(sys->hostFs(), "/shared",
                  2 * kPagesPerBlock * kPage);
    auto ctx0 = test::makeBlock(sys->device(0), 0);
    auto ctx1 = test::makeBlock(sys->device(0), 1);
    int fd = sys->fs().gopen(ctx0, "/shared", G_RDONLY);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(fd, sys->fs().gopen(ctx1, "/shared", G_RDONLY));
    std::vector<uint8_t> buf(kPage);
    // Strictly alternating page reads from disjoint halves — the
    // interleaving that collapses a single per-file tracker.
    for (uint64_t pg = 0; pg < kPagesPerBlock; ++pg) {
        ASSERT_EQ(int64_t(kPage),
                  sys->fs().gread(ctx0, fd, pg * kPage, kPage,
                                  buf.data()));
        ASSERT_EQ(int64_t(kPage),
                  sys->fs().gread(ctx1, fd,
                                  (kPagesPerBlock + pg) * kPage, kPage,
                                  buf.data()));
    }
    const ReadAheadStreams *t = sys->fs().readAheadTracker(fd);
    ASSERT_NE(nullptr, t);
    // Both block streams ramped to the ceiling...
    ASSERT_NE(nullptr, t->stream(0));
    ASSERT_NE(nullptr, t->stream(1));
    EXPECT_EQ(32u, t->stream(0)->window());
    EXPECT_EQ(32u, t->stream(1)->window());
    EXPECT_EQ(2u, t->streamsActive());
    // ...and prefetch was perfect: every page fetched once, every
    // speculative page promoted by the scan behind it.
    EXPECT_EQ(2 * kPagesPerBlock,
              counterOf(sys->fs(), "cache_misses"));
    EXPECT_GT(counterOf(sys->fs(), "ra_issued"), 0u);
    EXPECT_EQ(counterOf(sys->fs(), "ra_issued"),
              counterOf(sys->fs(), "ra_hit"));
    EXPECT_EQ(0u, counterOf(sys->fs(), "ra_wasted"));
    EXPECT_EQ(2u,
              sys->fs().stats().counter("ra_streams_active").get());
    sys->fs().gclose(ctx0, fd);
    sys->fs().gclose(ctx1, fd);
}

// ---------------------------------------------------------------------
// Sharded files: the window is clipped at shard-group boundaries so
// one prefetch RPC never spans two owners (PR 4's demand-batch rule).
// ---------------------------------------------------------------------

TEST(ReadAheadShardTest, WindowClipsAtShardGroupBoundaries)
{
    // Standalone wiring (tests that need odd topologies wire
    // components manually): one BufferCache with a 2-GPU HashPageGroup
    // map installed, groups of 4 pages — a ramped 32-page window MUST
    // split into per-group batches.
    sim::SimContext sim;
    hostfs::HostFs hostFs(sim);
    consistency::ConsistencyMgr mgr;
    gpu::GpuDevice dev(sim, 0);
    rpc::CpuDaemon daemon(hostFs, mgr);
    rpc::RpcQueue &queue = daemon.attachGpu(dev);
    daemon.start();
    {
        constexpr uint64_t kPage = 16 * KiB;
        constexpr unsigned kGroup = 4;
        GpuFsParams p;
        p.pageSize = kPage;
        p.cacheBytes = 256 * kPage;
        p.shardPolicy = ShardPolicy::HashPageGroup;
        p.shardPagesPerGroup = kGroup;
        StatSet stats("ra_shard_test");
        BufferCache bc(dev, queue, p, stats);
        ShardMap map(ShardPolicy::HashPageGroup, 2, kGroup);
        bc.setShardMap(&map);

        test::addRamp(hostFs, "/f", 128 * kPage);
        rpc::RpcRequest oreq;
        oreq.op = rpc::RpcOp::Open;
        std::strncpy(oreq.path, "/f", rpc::kMaxPath - 1);
        oreq.flags = hostfs::O_RDONLY_F;
        rpc::RpcResponse oresp = queue.call(oreq);
        ASSERT_EQ(Status::Ok, oresp.status);

        CacheFile cf;
        cf.hostFd = oresp.hostFd;
        cf.ino = oresp.ino;
        cf.size.store(oresp.size);
        bc.attach(cf);
        bc.setupFile(cf);

        // Prime the tracker to a full 32-page window (stream key 0 =
        // the block id submitReadAhead will resolve); submitReadAhead
        // itself records the miss at 40 (the next in the run).
        for (uint64_t i = 33; i <= 39; ++i)
            cf.ra.onMiss(0, i, i, 32);
        ASSERT_EQ(32u, cf.ra.window());

        auto ctx = test::makeBlock(dev);
        PendingFetch pending[16];
        unsigned n = bc.submitReadAhead(ctx, cf, 40, 40, pending, 16);
        ASSERT_GT(n, 0u);
        unsigned pages = 0;
        for (unsigned i = 0; i < n; ++i) {
            // Every batch stays inside one ownership group.
            uint64_t first = pending[i].startIdx;
            uint64_t last = pending[i].startIdx + pending[i].n - 1;
            EXPECT_EQ(first / kGroup, last / kGroup)
                << "batch " << i << " spans groups [" << first << ","
                << last << "]";
            EXPECT_LE(pending[i].n, kGroup);
            pages += pending[i].n;
        }
        // The whole window was still covered, just in clipped batches:
        // pages 41..72 = a 3-page group tail, 7 whole groups, and a
        // 1-page group head.
        EXPECT_EQ(32u, pages);
        EXPECT_EQ(9u, n);
        for (unsigned i = 0; i < n; ++i)
            EXPECT_EQ(Status::Ok, bc.completeFetch(cf, pending[i]));

        bc.destroyFile(cf);
        rpc::RpcRequest creq;
        creq.op = rpc::RpcOp::Close;
        creq.hostFd = oresp.hostFd;
        queue.call(creq);
    }
    daemon.stop();
}

} // namespace
} // namespace core
} // namespace gpufs
