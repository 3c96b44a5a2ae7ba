/** @file Unit tests for the lock-free buffer-cache radix tree. */

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "base/rng.hh"
#include "base/stats.hh"
#include "gpufs/frame.hh"
#include "gpufs/radix.hh"

namespace gpufs {
namespace core {
namespace {

class RadixTest : public ::testing::Test
{
  protected:
    RadixTest()
        : arena(64 * 64 * KiB, 64 * KiB),       // 64 frames of 64 KiB
          counters{stats.counter("lockfree"), stats.counter("locked"),
                   stats.counter("reclaimed"), stats.counter("ra_hit"),
                   stats.counter("ra_wasted")},
          cache(arena, counters, false)
    {
    }

    /** Fill-and-pin a page with a recognizable byte. */
    uint32_t
    fill(FileCache &c, uint64_t idx, uint8_t value)
    {
        FPage *p = c.getPage(idx);
        uint32_t frame = kNoFrame;
        if (!c.tryPinReady(*p, idx, &frame)) {
            bool did_init = false;
            Status st = c.initAndPin(*p, idx, &frame, &did_init,
                                     [&](uint8_t *data, uint32_t *valid) {
                                         std::memset(data, value,
                                                     arena.pageSize());
                                         *valid = uint32_t(arena.pageSize());
                                         return Status::Ok;
                                     });
            EXPECT_EQ(Status::Ok, st);
        }
        return frame;
    }

    StatSet stats{"radix_test"};
    FrameArena arena;
    CacheCounters counters;
    FileCache cache;
};

TEST_F(RadixTest, GetPageIsStable)
{
    FPage *a = cache.getPage(12345);
    FPage *b = cache.getPage(12345);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, cache.getPage(12346));
}

TEST_F(RadixTest, LookupsAreLockFreeWithoutContention)
{
    for (int i = 0; i < 100; ++i)
        cache.getPage(i * 1000);
    EXPECT_GT(stats.counter("lockfree").get(), 0u);
    EXPECT_EQ(0u, stats.counter("locked").get());
}

TEST_F(RadixTest, ForceLockedModeCountsLockedAccesses)
{
    FileCache locked(arena, counters, true);
    locked.getPage(1);
    locked.getPage(2);
    EXPECT_GE(stats.counter("locked").get(), 2u);
}

TEST_F(RadixTest, PinMissOnEmptyPage)
{
    FPage *p = cache.getPage(7);
    uint32_t frame;
    EXPECT_FALSE(cache.tryPinReady(*p, 7, &frame));
    EXPECT_EQ(0, p->refs.load());     // pin rolled back
}

TEST_F(RadixTest, InitThenHit)
{
    uint32_t f1 = fill(cache, 7, 0xAB);
    EXPECT_NE(kNoFrame, f1);
    EXPECT_EQ(0xAB, arena.data(f1)[0]);
    cache.unpin(*cache.getPage(7));

    FPage *p = cache.getPage(7);
    uint32_t f2;
    ASSERT_TRUE(cache.tryPinReady(*p, 7, &f2));
    EXPECT_EQ(f1, f2);
    cache.unpin(*p);
}

TEST_F(RadixTest, SecondInitAndPinJustPins)
{
    fill(cache, 3, 0x11);
    FPage *p = cache.getPage(3);
    uint32_t frame;
    bool did_init = true;
    Status st = cache.initAndPin(*p, 3, &frame, &did_init,
                                 [&](uint8_t *, uint32_t *) {
                                     ADD_FAILURE() << "fetch re-ran";
                                     return Status::IoError;
                                 });
    EXPECT_EQ(Status::Ok, st);
    EXPECT_FALSE(did_init);
    EXPECT_EQ(2, p->refs.load());
    cache.unpin(*p);
    cache.unpin(*p);
}

TEST_F(RadixTest, FetchFailureRollsBack)
{
    FPage *p = cache.getPage(9);
    uint32_t frame;
    bool did_init = false;
    uint32_t free_before = arena.freeCount();
    Status st = cache.initAndPin(*p, 9, &frame, &did_init,
                                 [&](uint8_t *, uint32_t *) {
                                     return Status::IoError;
                                 });
    EXPECT_EQ(Status::IoError, st);
    EXPECT_EQ(kPageEmpty, p->state.load());
    EXPECT_EQ(0, p->refs.load());
    EXPECT_EQ(free_before, arena.freeCount());
}

TEST_F(RadixTest, IdentityCheckRejectsRecycledFrame)
{
    uint32_t f = fill(cache, 4, 0x22);
    cache.unpin(*cache.getPage(4));
    // Simulate reclamation + reuse by another file: rewrite identity.
    arena.frame(f).fileUid.store(cache.uid() + 999);
    FPage *p = cache.getPage(4);
    uint32_t out;
    EXPECT_FALSE(cache.tryPinReady(*p, 4, &out));
    EXPECT_EQ(0, p->refs.load());
    arena.frame(f).fileUid.store(cache.uid());   // restore for teardown
}

TEST_F(RadixTest, ReclaimFreesUnpinnedPages)
{
    for (uint64_t i = 0; i < 8; ++i) {
        fill(cache, i, uint8_t(i));
        cache.unpin(*cache.getPage(i));
    }
    uint32_t free_before = arena.freeCount();
    unsigned freed = cache.reclaim(4, false,
                                   [](uint64_t, uint8_t *, uint32_t,
                                      uint32_t) {});
    EXPECT_EQ(4u, freed);
    EXPECT_EQ(free_before + 4, arena.freeCount());
    EXPECT_EQ(4u, stats.counter("reclaimed").get());
}

TEST_F(RadixTest, ReclaimSkipsPinnedPages)
{
    fill(cache, 0, 1);     // stays pinned
    fill(cache, 1, 2);
    cache.unpin(*cache.getPage(1));
    unsigned freed = cache.reclaim(10, false,
                                   [](uint64_t, uint8_t *, uint32_t,
                                      uint32_t) {});
    EXPECT_EQ(1u, freed);
    cache.unpin(*cache.getPage(0));
}

TEST_F(RadixTest, ReclaimFifoTakesOldestNodesFirst)
{
    // Pages 0..63 share leaf 0 (oldest); 64..127 leaf 1 (newest).
    for (uint64_t i = 0; i < 2; ++i) {
        fill(cache, i * 64, uint8_t(i));
        cache.unpin(*cache.getPage(i * 64));
    }
    std::vector<uint64_t> evicted;
    cache.reclaim(1, false,
                  [&](uint64_t idx, uint8_t *, uint32_t, uint32_t) {
                      evicted.push_back(idx);
                  });
    // The writeback callback only fires for dirty pages; verify order
    // via which page became Empty instead.
    FPage *oldest = cache.getPage(0);
    EXPECT_EQ(kPageEmpty, oldest->state.load());
    FPage *newest = cache.getPage(64);
    EXPECT_EQ(kPageReady, newest->state.load());
}

TEST_F(RadixTest, DirtyPagesNeedAllowDirty)
{
    uint32_t f = fill(cache, 5, 0x33);
    cache.noteDirty(arena.frame(f), 0, 100);
    cache.unpin(*cache.getPage(5));
    EXPECT_EQ(1u, cache.dirtyCount());

    EXPECT_EQ(0u, cache.reclaim(1, false,
                                [](uint64_t, uint8_t *, uint32_t,
                                   uint32_t) {}));
    bool wrote = false;
    EXPECT_EQ(1u, cache.reclaim(1, true,
                                [&](uint64_t idx, uint8_t *data, uint32_t lo,
                                    uint32_t hi) {
                                    wrote = true;
                                    EXPECT_EQ(5u, idx);
                                    EXPECT_EQ(0u, lo);
                                    EXPECT_EQ(100u, hi);
                                    EXPECT_EQ(0x33, data[0]);
                                }));
    EXPECT_TRUE(wrote);
    EXPECT_EQ(0u, cache.dirtyCount());
}

TEST_F(RadixTest, NoteDirtyGrowsExtentAndCountsOnce)
{
    uint32_t f = fill(cache, 6, 0);
    PFrame &pf = arena.frame(f);
    cache.noteDirty(pf, 100, 200);
    cache.noteDirty(pf, 50, 120);
    cache.noteDirty(pf, 180, 300);
    uint64_t e = pf.dirtyExtent.load();
    EXPECT_EQ(50u, PFrame::extentLo(e));
    EXPECT_EQ(300u, PFrame::extentHi(e));
    EXPECT_EQ(1u, cache.dirtyCount());
    cache.unpin(*cache.getPage(6));
}

TEST_F(RadixTest, TakeDirtyBatchTakesEveryDirtyUnpinnedPage)
{
    for (uint64_t i = 0; i < 3; ++i) {
        uint32_t f = fill(cache, i, uint8_t(i));
        cache.noteDirty(arena.frame(f), 0, 10);
        cache.unpin(*cache.getPage(i));
    }
    DirtyExtent ext[4];
    unsigned n = cache.takeDirtyBatch(0, UINT64_MAX, ext, 4);
    EXPECT_EQ(3u, n);
    EXPECT_EQ(0u, cache.dirtyCount());
    for (unsigned i = 0; i < n; ++i) {
        EXPECT_EQ(0u, ext[i].lo);
        EXPECT_EQ(10u, ext[i].hi);
    }
    cache.finishDirtyBatch(ext, n, /*restore=*/false);
    EXPECT_EQ(0u, cache.takeDirtyBatch(0, UINT64_MAX, ext, 4));
}

TEST_F(RadixTest, TakeDirtyBatchSkipsPinnedPages)
{
    uint32_t f = fill(cache, 0, 1);   // pinned
    cache.noteDirty(arena.frame(f), 0, 8);
    DirtyExtent ext[1];
    EXPECT_EQ(0u, cache.takeDirtyBatch(0, UINT64_MAX, ext, 1));
    EXPECT_EQ(1u, cache.dirtyCount());
    cache.unpin(*cache.getPage(0));
}

TEST_F(RadixTest, DropAllReportsPinnedPages)
{
    fill(cache, 0, 1);
    EXPECT_FALSE(cache.dropAll());
    cache.unpin(*cache.getPage(0));
    EXPECT_TRUE(cache.dropAll());
    EXPECT_EQ(arena.numFrames(), arena.freeCount());
}

TEST_F(RadixTest, ResidentPagesCount)
{
    EXPECT_EQ(0u, cache.residentPages());
    for (uint64_t i = 0; i < 5; ++i) {
        fill(cache, i * 64, 1);
        cache.unpin(*cache.getPage(i * 64));
    }
    EXPECT_EQ(5u, cache.residentPages());
}

TEST_F(RadixTest, EvictFrameTargetsSnapshotAndVerifiesIdentity)
{
    for (uint64_t i = 0; i < 4; ++i) {
        fill(cache, i, uint8_t(i));
        cache.unpin(*cache.getPage(i));
    }
    auto noop = [](uint64_t, uint8_t *, uint32_t, uint32_t) {};
    // Evict exactly the frame backing page 3 (the global-LRU policy's
    // snapshot-then-evict protocol).
    uint32_t f3 = cache.getPage(3)->frame.load();
    EXPECT_EQ(1u, cache.evictFrame(f3, false, noop));
    EXPECT_EQ(kPageEmpty, cache.getPage(3)->state.load());
    EXPECT_EQ(kPageReady, cache.getPage(0)->state.load());
    // A stale snapshot entry (frame already freed) is a no-op.
    EXPECT_EQ(0u, cache.evictFrame(f3, false, noop));
    // A pinned page refuses eviction through its frame.
    uint32_t f0;
    FPage *p0 = cache.getPage(0);
    ASSERT_TRUE(cache.tryPinReady(*p0, 0, &f0));
    EXPECT_EQ(0u, cache.evictFrame(f0, false, noop));
    cache.unpin(*p0);
}

TEST_F(RadixTest, UidsAreUniqueAcrossCaches)
{
    FileCache a(arena, counters, false), b(arena, counters, false);
    EXPECT_NE(a.uid(), b.uid());
    EXPECT_NE(a.uid(), cache.uid());
}

// ---- concurrency stress ----

TEST_F(RadixTest, ConcurrentInitOfSamePageRunsFetchOnce)
{
    std::atomic<int> fetches{0};
    constexpr int kThreads = 16;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            FPage *p = cache.getPage(42);
            uint32_t frame;
            if (cache.tryPinReady(*p, 42, &frame)) {
                cache.unpin(*p);
                return;
            }
            bool did_init = false;
            Status st = cache.initAndPin(
                *p, 42, &frame, &did_init,
                [&](uint8_t *data, uint32_t *valid) {
                    fetches.fetch_add(1);
                    std::memset(data, 7, arena.pageSize());
                    *valid = uint32_t(arena.pageSize());
                    return Status::Ok;
                });
            EXPECT_EQ(Status::Ok, st);
            cache.unpin(*p);
        });
    }
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(1, fetches.load());
    EXPECT_EQ(0, cache.getPage(42)->refs.load());
}

TEST_F(RadixTest, ConcurrentLookupInsertEvictIsSafe)
{
    // Hammer a working set larger than the arena from many threads
    // while two threads continuously reclaim: exercises the
    // pin-vs-evict Dekker protocol and seqlock traversal together.
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> errors{0};
    constexpr uint64_t kPages = 256;      // 4x the 64-frame arena

    auto reader = [&](unsigned seed) {
        SplitMix64 rng(seed);
        while (!stop.load(std::memory_order_relaxed)) {
            uint64_t idx = rng.nextBelow(kPages);
            FPage *p = cache.getPage(idx);
            uint32_t frame;
            if (cache.tryPinReady(*p, idx, &frame)) {
                // Verify identity under pin.
                if (arena.data(frame)[0] != uint8_t(idx))
                    errors.fetch_add(1);
                cache.unpin(*p);
                continue;
            }
            bool did_init = false;
            Status st = cache.initAndPin(
                *p, idx, &frame, &did_init,
                [&](uint8_t *data, uint32_t *valid) {
                    std::memset(data, uint8_t(idx), arena.pageSize());
                    *valid = uint32_t(arena.pageSize());
                    return Status::Ok;
                });
            if (st == Status::NoSpace) {
                cache.reclaim(8, false,
                              [](uint64_t, uint8_t *, uint32_t, uint32_t) {});
                continue;
            }
            if (st != Status::Ok) {
                errors.fetch_add(1);
                continue;
            }
            if (arena.data(frame)[0] != uint8_t(idx))
                errors.fetch_add(1);
            cache.unpin(*p);
        }
    };
    auto evictor = [&] {
        while (!stop.load(std::memory_order_relaxed)) {
            cache.reclaim(4, false,
                          [](uint64_t, uint8_t *, uint32_t, uint32_t) {});
        }
    };

    std::vector<std::thread> threads;
    for (unsigned t = 0; t < 12; ++t)
        threads.emplace_back(reader, t + 1);
    threads.emplace_back(evictor);
    threads.emplace_back(evictor);
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    stop.store(true);
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(0u, errors.load());
    // All pins released.
    for (uint64_t i = 0; i < kPages; ++i)
        EXPECT_EQ(0, cache.getPage(i)->refs.load()) << "page " << i;
}

} // namespace
} // namespace core
} // namespace gpufs
