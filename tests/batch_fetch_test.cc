/** @file Tests for the batched ReadPages fetch path (read-ahead
 *  coalescing): RPC-count reduction and byte-for-byte equivalence with
 *  the per-page path. */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "gpufs/system.hh"
#include "tests/testutil.hh"

namespace gpufs {
namespace core {
namespace {

std::unique_ptr<GpufsSystem>
makeSystem(unsigned read_ahead_pages, uint64_t page_size = 16 * KiB,
           uint64_t cache_bytes = 16 * MiB)
{
    GpuFsParams p;
    p.pageSize = page_size;
    p.cacheBytes = cache_bytes;
    // These tests pin the STATIC window's exact RPC pattern; the
    // read_ahead_pages=0 "plain" baseline must stay prefetch-free
    // (adaptive, the default policy, would coalesce it too).
    p.readAheadPages = read_ahead_pages;
    return std::make_unique<GpufsSystem>(1, p);
}

uint64_t
readRpcsIssued(GpufsSystem &sys)
{
    return sys.fs().stats().counter("read_rpcs").get() +
        sys.fs().stats().counter("batch_read_rpcs").get();
}

TEST(BatchFetchTest, SequentialColdReadIssuesFewerRpcsThanPages)
{
    constexpr uint64_t kPage = 16 * KiB;
    constexpr uint64_t kPages = 64;
    auto sys = makeSystem(4, kPage);
    test::addRamp(sys->hostFs(), "/seq", kPages * kPage);

    auto ctx = test::makeBlock(sys->device(0));
    int fd = sys->fs().gopen(ctx, "/seq", G_RDONLY);
    ASSERT_GE(fd, 0);
    std::vector<uint8_t> buf(kPage);
    for (uint64_t pg = 0; pg < kPages; ++pg) {
        ASSERT_EQ(int64_t(kPage),
                  sys->fs().gread(ctx, fd, pg * kPage, kPage, buf.data()));
    }
    sys->fs().gclose(ctx, fd);

    uint64_t rpcs = readRpcsIssued(*sys);
    // Every page was fetched exactly once...
    EXPECT_EQ(kPages, sys->fs().stats().counter("cache_misses").get());
    // ...but coalescing must have cut RPCs by at least 2x (at
    // readAheadPages=4 the steady state is 2 RPCs per 5 pages).
    EXPECT_LE(rpcs * 2, kPages);
    EXPECT_GT(sys->fs().stats().counter("batch_read_rpcs").get(), 0u);
}

TEST(BatchFetchTest, BatchedAndPerPageReadsMatchByteForByte)
{
    constexpr uint64_t kPage = 16 * KiB;
    constexpr uint64_t kSize = 37 * kPage + 1234;   // partial tail page
    auto batched = makeSystem(8, kPage);
    auto plain = makeSystem(0, kPage);
    test::addRamp(batched->hostFs(), "/f", kSize);
    test::addRamp(plain->hostFs(), "/f", kSize);

    auto bctx = test::makeBlock(batched->device(0));
    auto pctx = test::makeBlock(plain->device(0));
    int bfd = batched->fs().gopen(bctx, "/f", G_RDONLY);
    int pfd = plain->fs().gopen(pctx, "/f", G_RDONLY);
    ASSERT_GE(bfd, 0);
    ASSERT_GE(pfd, 0);

    std::vector<uint8_t> bbuf(kSize), pbuf(kSize);
    ASSERT_EQ(int64_t(kSize),
              batched->fs().gread(bctx, bfd, 0, kSize, bbuf.data()));
    ASSERT_EQ(int64_t(kSize),
              plain->fs().gread(pctx, pfd, 0, kSize, pbuf.data()));
    ASSERT_EQ(bbuf, pbuf);
    for (uint64_t i = 0; i < kSize; i += 4093)
        ASSERT_EQ(test::rampByte(i), bbuf[i]) << "offset " << i;
    // The batched system must have used strictly fewer read RPCs.
    EXPECT_LT(readRpcsIssued(*batched), readRpcsIssued(*plain));

    batched->fs().gclose(bctx, bfd);
    plain->fs().gclose(pctx, pfd);
}

TEST(BatchFetchTest, ReadAheadStopsAtEofWithPartialTail)
{
    constexpr uint64_t kPage = 16 * KiB;
    constexpr uint64_t kSize = 3 * kPage + 100;     // 4 pages, short tail
    auto sys = makeSystem(16, kPage);
    test::addRamp(sys->hostFs(), "/tail", kSize);

    auto ctx = test::makeBlock(sys->device(0));
    int fd = sys->fs().gopen(ctx, "/tail", G_RDONLY);
    ASSERT_GE(fd, 0);
    // One demand miss at page 0 prefetches the whole file (3 more
    // pages) in a single batch — never beyond EOF.
    std::vector<uint8_t> buf(kSize);
    ASSERT_EQ(int64_t(kPage), sys->fs().gread(ctx, fd, 0, kPage, buf.data()));
    EXPECT_EQ(4u, sys->fs().stats().counter("cache_misses").get());
    EXPECT_EQ(1u, sys->fs().stats().counter("batch_read_rpcs").get());
    EXPECT_EQ(3u, sys->fs().stats().counter("batch_read_pages").get());

    // The tail page's content (including the zero fill past EOF within
    // the clamped read) is correct.
    ASSERT_EQ(int64_t(kSize), sys->fs().gread(ctx, fd, 0, kSize, buf.data()));
    for (uint64_t i = 0; i < kSize; i += 997)
        ASSERT_EQ(test::rampByte(i), buf[i]) << "offset " << i;
    sys->fs().gclose(ctx, fd);
}

TEST(BatchFetchTest, LongRunsSplitAtBatchLimit)
{
    constexpr uint64_t kPage = 16 * KiB;
    constexpr uint64_t kPages = 64;
    // Read-ahead window wider than one batch: runs split at
    // rpc::kMaxBatchPages but still cover the window.
    auto sys = makeSystem(32, kPage);
    test::addRamp(sys->hostFs(), "/wide", kPages * kPage);

    auto ctx = test::makeBlock(sys->device(0));
    int fd = sys->fs().gopen(ctx, "/wide", G_RDONLY);
    std::vector<uint8_t> buf(kPage);
    ASSERT_EQ(int64_t(kPage), sys->fs().gread(ctx, fd, 0, kPage, buf.data()));
    // 1 demand page + 32 prefetched in ceil(32/16) = 2 batches.
    EXPECT_EQ(33u, sys->fs().stats().counter("cache_misses").get());
    EXPECT_EQ(2u, sys->fs().stats().counter("batch_read_rpcs").get());
    sys->fs().gclose(ctx, fd);
}

TEST(BatchFetchTest, BatchSkipsResidentPagesAndRefetchesNothing)
{
    constexpr uint64_t kPage = 16 * KiB;
    auto sys = makeSystem(4, kPage);
    test::addRamp(sys->hostFs(), "/skip", 16 * kPage);

    auto ctx = test::makeBlock(sys->device(0));
    int fd = sys->fs().gopen(ctx, "/skip", G_RDONLY);
    std::vector<uint8_t> buf(kPage);
    // Warm page 2 out of order, then stream from 0: read-ahead steps
    // over the resident page and no page is fetched twice.
    sys->fs().gread(ctx, fd, 2 * kPage, kPage, buf.data());
    for (uint64_t pg = 0; pg < 16; ++pg)
        sys->fs().gread(ctx, fd, pg * kPage, kPage, buf.data());
    EXPECT_EQ(16u, sys->fs().stats().counter("cache_misses").get());
    sys->fs().gclose(ctx, fd);
}

// A split-phase demand page is one access: completeFetch counts it as
// the miss, and the wait-time pin that finds it published counts
// nothing more, as a synchronous miss counts one. gmmap is that
// synchronous path.
TEST(BatchFetchTest, SplitPhaseDemandPageCountsOneMissAndNoHit)
{
    constexpr uint64_t kPage = 64 * KiB;
    constexpr uint64_t kPages = 32;
    struct Counts {
        uint64_t hits, misses, lockfree, locked;
    };
    enum class Reader { Gread, Greadv, Gmmap };
    auto pass = [&](GpufsSystem &sys, gpu::BlockCtx &ctx, int fd,
                    Reader how) {
        std::vector<uint8_t> buf(kPages * kPage);
        if (how == Reader::Gread) {
            for (uint64_t pg = 0; pg < kPages; ++pg) {
                EXPECT_EQ(int64_t(kPage),
                          sys.fs().gread(ctx, fd, pg * kPage, kPage,
                                         buf.data() + pg * kPage));
            }
        } else if (how == Reader::Greadv) {
            // Two extents: one miss run per extent.
            const uint64_t half = buf.size() / 2;
            GIoVec iov[2] = {{0, half, buf.data()},
                             {half, half, buf.data() + half}};
            EXPECT_EQ(int64_t(buf.size()),
                      sys.fs().greadv(ctx, fd, iov, 2));
        } else {
            for (uint64_t pg = 0; pg < kPages; ++pg) {
                uint64_t mapped = 0;
                void *ptr =
                    sys.fs().gmmap(ctx, fd, pg * kPage, kPage, &mapped);
                EXPECT_NE(nullptr, ptr);
                std::memcpy(buf.data() + pg * kPage, ptr, kPage);
                sys.fs().gmunmap(ctx, ptr);
            }
        }
        for (uint64_t i = 0; i < buf.size(); i += 4093)
            EXPECT_EQ(test::rampByte(i), buf[i]) << "offset " << i;
        StatSet &s = sys.fs().stats();
        return Counts{s.counter("cache_hits").get(),
                      s.counter("cache_misses").get(),
                      s.counter("lockfree_accesses").get(),
                      s.counter("locked_accesses").get()};
    };
    for (Reader how : {Reader::Gread, Reader::Greadv, Reader::Gmmap}) {
        SCOPED_TRACE(how == Reader::Gread    ? "gread"
                     : how == Reader::Greadv ? "greadv"
                                             : "gmmap");
        // No read-ahead, so every page is a demand miss; a 256-frame
        // arena leaves the claim reserve free, so gread and greadv
        // fetch split-phase.
        auto sys = makeSystem(0, kPage, 256 * kPage);
        test::addRamp(sys->hostFs(), "/once", kPages * kPage);
        hostfs::FileInfo info;
        ASSERT_EQ(Status::Ok, sys->hostFs().stat("/once", &info));
        sys->hostFs().cache().prefault(info.ino, 0, info.size);
        auto ctx = test::makeBlock(sys->device(0));
        int fd = sys->fs().gopen(ctx, "/once", G_RDONLY);
        ASSERT_GE(fd, 0);

        Counts cold = pass(*sys, ctx, fd, how);
        EXPECT_EQ(0u, cold.hits);
        EXPECT_EQ(kPages, cold.misses);
        EXPECT_EQ(0u, cold.lockfree);
        // Every demand page counts one locked access, split-phase or
        // not, whether one ReadPage or a batched run carried it (a
        // read-ahead batch counts none).
        EXPECT_EQ(kPages, cold.locked);

        // Warm: every page is a lock-free hit.
        Counts warm = pass(*sys, ctx, fd, how);
        EXPECT_EQ(kPages, warm.hits);
        EXPECT_EQ(kPages, warm.misses);
        EXPECT_EQ(kPages, warm.lockfree);
        EXPECT_EQ(cold.locked, warm.locked);
        sys->fs().gclose(ctx, fd);
    }
}

TEST(BatchFetchTest, ConcurrentBlocksWithReadAheadKeepDataIntact)
{
    constexpr uint64_t kPage = 16 * KiB;
    constexpr uint64_t kSize = 8 * MiB;
    auto sys = makeSystem(8, kPage, 16 * MiB);
    test::addRamp(sys->hostFs(), "/par", kSize);

    std::atomic<uint64_t> errors{0};
    gpu::launch(sys->device(0), 28, 256, [&](gpu::BlockCtx &ctx) {
        GpuFs &fs = sys->fs();
        int fd = fs.gopen(ctx, "/par", G_RDONLY);
        if (fd < 0) {
            errors.fetch_add(1);
            return;
        }
        std::vector<uint8_t> buf(kPage);
        uint64_t span = kSize / ctx.numBlocks();
        uint64_t base = ctx.blockId() * span;
        for (uint64_t off = base; off + buf.size() <= base + span;
             off += buf.size()) {
            if (fs.gread(ctx, fd, off, buf.size(), buf.data()) !=
                int64_t(buf.size())) {
                errors.fetch_add(1);
                continue;
            }
            for (size_t i = 0; i < buf.size(); i += 1021) {
                if (buf[i] != test::rampByte(off + i))
                    errors.fetch_add(1);
            }
        }
        fs.gclose(ctx, fd);
    });
    EXPECT_EQ(0u, errors.load());
    EXPECT_EQ(0u, sys->hostFs().openCount());
}

} // namespace
} // namespace core
} // namespace gpufs
