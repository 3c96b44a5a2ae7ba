/** @file Tests for the non-blocking I/O core: submit/wait ordering,
 *  token lifecycle, vectored I/O, wait-after-close, overlap. */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "gpufs/system.hh"
#include "tests/testutil.hh"

namespace gpufs {
namespace core {
namespace {

std::unique_ptr<GpufsSystem>
makeSystem(uint64_t page_size = 16 * KiB, uint64_t cache_bytes = 16 * MiB,
           unsigned max_inflight = 64)
{
    GpuFsParams p;
    p.pageSize = page_size;
    p.cacheBytes = cache_bytes;
    p.maxInflightIo = max_inflight;
    return std::make_unique<GpufsSystem>(1, p);
}

TEST(AsyncIoTest, SubmitWaitOutOfOrderDeliversCorrectData)
{
    auto sys = makeSystem();
    test::addRamp(sys->hostFs(), "/f", 1 * MiB);
    auto ctx = test::makeBlock(sys->device(0));
    int fd = sys->fs().gopen(ctx, "/f", G_RDONLY);
    ASSERT_GE(fd, 0);

    constexpr unsigned kN = 4;
    constexpr uint64_t kChunk = 96 * KiB;   // 6 pages each
    std::vector<std::vector<uint8_t>> bufs(kN,
                                           std::vector<uint8_t>(kChunk));
    IoToken toks[kN];
    for (unsigned i = 0; i < kN; ++i) {
        toks[i] = sys->fs().gread_async(ctx, fd, i * kChunk, kChunk,
                                        bufs[i].data());
        ASSERT_TRUE(toks[i].valid());
    }
    // Completions are delivered out of order: wait newest first.
    for (int i = kN - 1; i >= 0; --i) {
        ASSERT_EQ(int64_t(kChunk), sys->fs().gwait(ctx, toks[i]));
        for (uint64_t b = 0; b < kChunk; b += 509)
            ASSERT_EQ(test::rampByte(i * kChunk + b), bufs[i][b])
                << "chunk " << i << " offset " << b;
    }
    sys->fs().gclose(ctx, fd);
}

TEST(AsyncIoTest, TokenCannotBeRedeemedTwice)
{
    auto sys = makeSystem();
    test::addRamp(sys->hostFs(), "/f", 64 * KiB);
    auto ctx = test::makeBlock(sys->device(0));
    int fd = sys->fs().gopen(ctx, "/f", G_RDONLY);
    std::vector<uint8_t> buf(4 * KiB);
    IoToken tok = sys->fs().gread_async(ctx, fd, 0, buf.size(),
                                        buf.data());
    ASSERT_EQ(int64_t(buf.size()), sys->fs().gwait(ctx, tok));
    // Second redemption of the same token: reuse error.
    EXPECT_EQ(-int64_t(Status::Inval), sys->fs().gwait(ctx, tok));
    // Fabricated and default tokens are rejected too.
    EXPECT_EQ(-int64_t(Status::Inval), sys->fs().gwait(ctx, IoToken{}));
    EXPECT_EQ(-int64_t(Status::Inval),
              sys->fs().gwait(ctx, IoToken{1234, 99}));
    sys->fs().gclose(ctx, fd);
}

TEST(AsyncIoTest, SubmissionErrorsSurfaceAtWait)
{
    auto sys = makeSystem();
    test::addRamp(sys->hostFs(), "/f", 4 * KiB);
    auto ctx = test::makeBlock(sys->device(0));
    uint8_t b = 0;

    // The wrappers return exactly what the pre-async API did, so the
    // error rides the token rather than invalidating it.
    IoToken bad_fd = sys->fs().gread_async(ctx, 77, 0, 1, &b);
    ASSERT_TRUE(bad_fd.valid());
    EXPECT_EQ(-int64_t(Status::BadFd), sys->fs().gwait(ctx, bad_fd));
    EXPECT_EQ(Status::BadFd, gstatus_of(-int64_t(Status::BadFd)));
    EXPECT_FALSE(gok(-int64_t(Status::BadFd)));

    int wfd = sys->fs().gopen(ctx, "/w", G_GWRONCE);
    ASSERT_GE(wfd, 0);
    IoToken wr_read = sys->fs().gread_async(ctx, wfd, 0, 1, &b);
    EXPECT_EQ(-int64_t(Status::Inval), sys->fs().gwait(ctx, wr_read));

    int rfd = sys->fs().gopen(ctx, "/f", G_RDONLY);
    ASSERT_GE(rfd, 0);
    IoToken ro_write = sys->fs().gwrite_async(ctx, rfd, 0, 1, &b);
    EXPECT_EQ(-int64_t(Status::ReadOnlyFile),
              sys->fs().gwait(ctx, ro_write));

    sys->fs().gclose(ctx, wfd);
    sys->fs().gclose(ctx, rfd);
}

TEST(AsyncIoTest, InflightCapFailsWithBusy)
{
    auto sys = makeSystem(16 * KiB, 16 * MiB, /*max_inflight=*/2);
    test::addRamp(sys->hostFs(), "/f", 256 * KiB);
    auto ctx = test::makeBlock(sys->device(0));
    int fd = sys->fs().gopen(ctx, "/f", G_RDONLY);
    std::vector<uint8_t> bufs[3] = {std::vector<uint8_t>(16 * KiB),
                                    std::vector<uint8_t>(16 * KiB),
                                    std::vector<uint8_t>(16 * KiB)};
    IoToken t0 = sys->fs().gread_async(ctx, fd, 0, 16 * KiB,
                                       bufs[0].data());
    IoToken t1 = sys->fs().gread_async(ctx, fd, 16 * KiB, 16 * KiB,
                                       bufs[1].data());
    IoToken t2 = sys->fs().gread_async(ctx, fd, 32 * KiB, 16 * KiB,
                                       bufs[2].data());
    EXPECT_EQ(-int64_t(Status::Busy), sys->fs().gwait(ctx, t2));
    EXPECT_EQ(int64_t(16 * KiB), sys->fs().gwait(ctx, t0));
    EXPECT_EQ(int64_t(16 * KiB), sys->fs().gwait(ctx, t1));
    // Below the cap again: a fresh submission succeeds.
    IoToken t3 = sys->fs().gread_async(ctx, fd, 32 * KiB, 16 * KiB,
                                       bufs[2].data());
    EXPECT_EQ(int64_t(16 * KiB), sys->fs().gwait(ctx, t3));
    sys->fs().gclose(ctx, fd);
}

TEST(AsyncIoTest, OverlappingRangeWritesBothLandWaitOrderWins)
{
    auto sys = makeSystem();
    auto ctx = test::makeBlock(sys->device(0));
    int fd = sys->fs().gopen(ctx, "/out", G_RDWR | G_CREAT);
    ASSERT_GE(fd, 0);
    std::vector<uint8_t> a(128, 0xAA), b(128, 0xBB);
    IoToken ta = sys->fs().gwrite_async(ctx, fd, 0, a.size(), a.data());
    IoToken tb = sys->fs().gwrite_async(ctx, fd, 64, b.size(), b.data());
    // Data is published at wait: the later-waited token wins the
    // overlapping bytes deterministically.
    ASSERT_EQ(int64_t(a.size()), sys->fs().gwait(ctx, ta));
    ASSERT_EQ(int64_t(b.size()), sys->fs().gwait(ctx, tb));
    ASSERT_EQ(Status::Ok, sys->fs().gfsync(ctx, fd));
    sys->fs().gclose(ctx, fd);

    int hfd = sys->hostFs().open("/out", hostfs::O_RDONLY_F);
    ASSERT_GE(hfd, 0);
    std::vector<uint8_t> back(192);
    sys->hostFs().pread(hfd, back.data(), back.size(), 0);
    sys->hostFs().close(hfd);
    for (unsigned i = 0; i < 64; ++i)
        ASSERT_EQ(0xAA, back[i]) << i;
    for (unsigned i = 64; i < 192; ++i)
        ASSERT_EQ(0xBB, back[i]) << i;
}

TEST(AsyncIoTest, WaitAfterCloseStillDelivers)
{
    auto sys = makeSystem();
    test::addRamp(sys->hostFs(), "/f", 128 * KiB);
    auto ctx = test::makeBlock(sys->device(0));
    int fd = sys->fs().gopen(ctx, "/f", G_RDONLY);
    std::vector<uint8_t> buf(64 * KiB);
    IoToken tok = sys->fs().gread_async(ctx, fd, 0, buf.size(),
                                        buf.data());
    ASSERT_EQ(Status::Ok, sys->fs().gclose(ctx, fd));
    ASSERT_EQ(int64_t(buf.size()), sys->fs().gwait(ctx, tok));
    for (uint64_t i = 0; i < buf.size(); i += 1021)
        ASSERT_EQ(test::rampByte(i), buf[i]);
}

TEST(AsyncIoTest, GwaitAllDrainsEverything)
{
    auto sys = makeSystem();
    test::addRamp(sys->hostFs(), "/a", 256 * KiB);
    auto ctx = test::makeBlock(sys->device(0));
    int afd = sys->fs().gopen(ctx, "/a", G_RDONLY);
    int bfd = sys->fs().gopen(ctx, "/b", G_RDWR | G_CREAT);
    ASSERT_GE(afd, 0);
    ASSERT_GE(bfd, 0);
    std::vector<uint8_t> r0(32 * KiB), r1(32 * KiB), w(8 * KiB, 0x5A);
    IoToken t0 = sys->fs().gread_async(ctx, afd, 0, r0.size(), r0.data());
    IoToken t1 = sys->fs().gread_async(ctx, afd, 64 * KiB, r1.size(),
                                       r1.data());
    IoToken t2 = sys->fs().gwrite_async(ctx, bfd, 0, w.size(), w.data());
    IoToken t3 = sys->fs().gfsync_async(ctx, bfd);

    // Scoped drain first: only bfd's tokens retire.
    EXPECT_EQ(Status::Ok, sys->fs().gwait_all(ctx, bfd));
    EXPECT_EQ(-int64_t(Status::Inval), sys->fs().gwait(ctx, t2));
    EXPECT_EQ(-int64_t(Status::Inval), sys->fs().gwait(ctx, t3));

    EXPECT_EQ(Status::Ok, sys->fs().gwait_all(ctx));
    EXPECT_EQ(-int64_t(Status::Inval), sys->fs().gwait(ctx, t0));
    EXPECT_EQ(-int64_t(Status::Inval), sys->fs().gwait(ctx, t1));
    for (uint64_t i = 0; i < r0.size(); i += 733) {
        ASSERT_EQ(test::rampByte(i), r0[i]);
        ASSERT_EQ(test::rampByte(64 * KiB + i), r1[i]);
    }
    // The fsync token ran after the write token (id order), so the
    // write is durable on the host.
    int hfd = sys->hostFs().open("/b", hostfs::O_RDONLY_F);
    ASSERT_GE(hfd, 0);
    uint8_t back = 0;
    sys->hostFs().pread(hfd, &back, 1, 100);
    sys->hostFs().close(hfd);
    EXPECT_EQ(0x5A, back);
    sys->fs().gclose(ctx, afd);
    sys->fs().gclose(ctx, bfd);
}

TEST(AsyncIoTest, VectoredReadWriteRoundTrip)
{
    auto sys = makeSystem(16 * KiB);
    auto ctx = test::makeBlock(sys->device(0));
    int fd = sys->fs().gopen(ctx, "/v", G_RDWR | G_CREAT);
    ASSERT_GE(fd, 0);

    // Three disjoint extents, one crossing a page boundary.
    std::vector<uint8_t> w0(8 * KiB, 0x11), w1(20 * KiB, 0x22),
        w2(300, 0x33);
    GIoVec wv[3] = {{0, w0.size(), w0.data()},
                    {30 * KiB, w1.size(), w1.data()},
                    {100 * KiB, w2.size(), w2.data()}};
    int64_t wr = sys->fs().gwritev(ctx, fd, wv, 3);
    ASSERT_EQ(int64_t(w0.size() + w1.size() + w2.size()), wr);
    ASSERT_EQ(Status::Ok, sys->fs().gfsync(ctx, fd));

    GStat st;
    ASSERT_EQ(Status::Ok, sys->fs().gfstat(ctx, fd, &st));
    EXPECT_EQ(100 * KiB + w2.size(), st.size);

    std::vector<uint8_t> r0(w0.size()), r1(w1.size()), r2(w2.size());
    GIoVec rv[3] = {{0, r0.size(), r0.data()},
                    {30 * KiB, r1.size(), r1.data()},
                    {100 * KiB, r2.size(), r2.data()}};
    int64_t rd = sys->fs().greadv(ctx, fd, rv, 3);
    ASSERT_EQ(wr, rd);
    EXPECT_EQ(w0, r0);
    EXPECT_EQ(w1, r1);
    EXPECT_EQ(w2, r2);
    sys->fs().gclose(ctx, fd);
}

TEST(AsyncIoTest, VectoredColdReadCoalescesIntoBatchRpcs)
{
    auto sys = makeSystem(16 * KiB);
    test::addRamp(sys->hostFs(), "/c", 1 * MiB);
    auto ctx = test::makeBlock(sys->device(0));
    int fd = sys->fs().gopen(ctx, "/c", G_RDONLY);
    ASSERT_GE(fd, 0);
    // 24 cold pages in one vectored call: the multi-extent request
    // feeds batched ReadPages RPCs, not one ReadPage per page.
    std::vector<uint8_t> buf(24 * 16 * KiB);
    GIoVec v{0, buf.size(), buf.data()};
    ASSERT_EQ(int64_t(buf.size()), sys->fs().greadv(ctx, fd, &v, 1));
    EXPECT_GE(sys->fs().stats().counter("batch_read_rpcs").get(), 2u);
    EXPECT_EQ(0u, sys->fs().stats().counter("read_rpcs").get());
    for (uint64_t i = 0; i < buf.size(); i += 4093)
        ASSERT_EQ(test::rampByte(i), buf[i]);
    sys->fs().gclose(ctx, fd);
}

TEST(AsyncIoTest, DoubleBufferOverlapsComputeWithFetch)
{
    // The tentpole property: a block overlapping its OWN compute with
    // its OWN I/O finishes in less virtual time than the same work
    // done with the synchronous wrappers. The interesting regime is
    // the disk-bound streaming scan (a cold file): fetch latency far
    // exceeds the per-page map overhead that already hides warm-cache
    // fetches, and double-buffering hides it behind compute.
    constexpr uint64_t kChunk = 256 * KiB;
    constexpr unsigned kChunks = 24;
    constexpr Time kComputePerChunk = 2000 * kMicrosecond;  // ~disk time

    auto run = [&](bool async) -> Time {
        GpuFsParams p;
        p.pageSize = kChunk;    // one page per chunk
        p.cacheBytes = (kChunks + 4) * kChunk;
        // Isolate the async core's overlap: adaptive read-ahead (the
        // default) would hide the sync loop's fetches too and erase
        // the contrast this test pins (readahead_test covers that).
        p.readAheadPages = 0;
        GpufsSystem sys(1, p);
        test::addRamp(sys.hostFs(), "/stream", kChunks * kChunk);
        auto ctx = test::makeBlock(sys.device(0));
        int fd = sys.fs().gopen(ctx, "/stream", G_RDONLY);
        std::vector<uint8_t> bufs[2] = {std::vector<uint8_t>(kChunk),
                                        std::vector<uint8_t>(kChunk)};
        Time t0 = ctx.now();
        if (!async) {
            for (unsigned i = 0; i < kChunks; ++i) {
                EXPECT_EQ(int64_t(kChunk),
                          sys.fs().gread(ctx, fd, i * kChunk, kChunk,
                                         bufs[0].data()));
                ctx.charge(kComputePerChunk);
            }
        } else {
            IoToken cur = sys.fs().gread_async(ctx, fd, 0, kChunk,
                                               bufs[0].data());
            for (unsigned i = 0; i < kChunks; ++i) {
                IoToken next;
                if (i + 1 < kChunks) {
                    next = sys.fs().gread_async(
                        ctx, fd, (i + 1) * kChunk, kChunk,
                        bufs[(i + 1) % 2].data());
                }
                EXPECT_EQ(int64_t(kChunk), sys.fs().gwait(ctx, cur));
                ctx.charge(kComputePerChunk);
                cur = next;
            }
        }
        sys.fs().gclose(ctx, fd);
        return ctx.now() - t0;
    };

    Time sync_t = run(false);
    Time async_t = run(true);
    EXPECT_LT(async_t, sync_t);
    // The next chunk's fetch hides behind this chunk's compute: the
    // overlap reclaims a substantial part of the I/O time (the
    // fig_async_overlap bench banks on >= 1.3x), not round-off.
    EXPECT_LT(async_t * 13, sync_t * 10);
}

TEST(AsyncIoTest, QueueFullSubmissionDegradesGracefully)
{
    // Enough vectored submissions to overrun the 64-slot RPC queue
    // (8 ops x up to 16 ReadPages batches each): past the last free
    // slot, split-phase submission must degrade to wait-time sync
    // resolution — never block on a slot while holding others (the
    // allocate() deadlock cycle).
    auto sys = makeSystem(16 * KiB, 64 * MiB);
    constexpr unsigned kOps = 8;
    constexpr uint64_t kSpan = 256 * 16 * KiB;  // 256 pages, 16 batches
    test::addRamp(sys->hostFs(), "/big", kOps * kSpan);
    auto ctx = test::makeBlock(sys->device(0));
    int fd = sys->fs().gopen(ctx, "/big", G_RDONLY);
    ASSERT_GE(fd, 0);
    std::vector<std::vector<uint8_t>> bufs(kOps,
                                           std::vector<uint8_t>(kSpan));
    IoToken toks[kOps];
    for (unsigned i = 0; i < kOps; ++i) {
        toks[i] = sys->fs().gread_async(ctx, fd, i * kSpan, kSpan,
                                        bufs[i].data());
    }
    for (unsigned i = 0; i < kOps; ++i)
        ASSERT_EQ(int64_t(kSpan), sys->fs().gwait(ctx, toks[i]));
    for (unsigned i = 0; i < kOps; ++i) {
        for (uint64_t b = 0; b < kSpan; b += 8191)
            ASSERT_EQ(test::rampByte(i * kSpan + b), bufs[i][b])
                << "op " << i << " offset " << b;
    }
    sys->fs().gclose(ctx, fd);
}

TEST(AsyncIoTest, FsyncDedupSkipsRedundantHostFsyncs)
{
    auto sys = makeSystem();
    auto ctx = test::makeBlock(sys->device(0));
    int fd = sys->fs().gopen(ctx, "/d", G_RDWR | G_CREAT);
    ASSERT_GE(fd, 0);
    std::vector<uint8_t> w(4 * KiB, 0x77);
    ASSERT_EQ(int64_t(w.size()),
              sys->fs().gwrite(ctx, fd, 0, w.size(), w.data()));
    ASSERT_EQ(Status::Ok, sys->fs().gfsync(ctx, fd));
    uint64_t deduped = sys->fs().stats().counter("fsyncs_deduped").get();
    // Nothing reached the host since: the second sync coalesces away.
    ASSERT_EQ(Status::Ok, sys->fs().gfsync(ctx, fd));
    EXPECT_EQ(deduped + 1,
              sys->fs().stats().counter("fsyncs_deduped").get());
    // A fresh write re-arms the host fsync.
    ASSERT_EQ(int64_t(w.size()),
              sys->fs().gwrite(ctx, fd, 8 * KiB, w.size(), w.data()));
    ASSERT_EQ(Status::Ok, sys->fs().gfsync(ctx, fd));
    EXPECT_EQ(deduped + 1,
              sys->fs().stats().counter("fsyncs_deduped").get());
    sys->fs().gclose(ctx, fd);
}

TEST(AsyncIoTest, ConcurrentBlocksDoubleBufferKeepDataIntact)
{
    // Many blocks double-buffering disjoint ranges of one file while
    // paging pressure forces eviction between submit and wait.
    GpuFsParams p;
    p.pageSize = 16 * KiB;
    p.cacheBytes = 2 * MiB;     // < file: constant paging
    GpufsSystem sys(1, p);
    constexpr uint64_t kSize = 8 * MiB;
    test::addRamp(sys.hostFs(), "/par", kSize);

    std::atomic<uint64_t> errors{0};
    gpu::launch(sys.device(0), 28, 256, [&](gpu::BlockCtx &ctx) {
        GpuFs &fs = sys.fs();
        int fd = fs.gopen(ctx, "/par", G_RDONLY);
        if (fd < 0) {
            errors.fetch_add(1);
            return;
        }
        const uint64_t chunk = 32 * KiB;
        const uint64_t span = kSize / ctx.numBlocks();
        const uint64_t base = ctx.blockId() * span;
        std::vector<uint8_t> bufs[2] = {std::vector<uint8_t>(chunk),
                                        std::vector<uint8_t>(chunk)};
        IoToken cur = fs.gread_async(ctx, fd, base, chunk,
                                     bufs[0].data());
        for (uint64_t off = base; off + chunk <= base + span;
             off += chunk) {
            IoToken next;
            unsigned cur_i = unsigned((off - base) / chunk) % 2;
            if (off + 2 * chunk <= base + span) {
                next = fs.gread_async(ctx, fd, off + chunk, chunk,
                                      bufs[(cur_i + 1) % 2].data());
            }
            if (fs.gwait(ctx, cur) != int64_t(chunk)) {
                errors.fetch_add(1);
            } else {
                for (uint64_t i = 0; i < chunk; i += 1021) {
                    if (bufs[cur_i][i] != test::rampByte(off + i))
                        errors.fetch_add(1);
                }
            }
            cur = next;
        }
        if (cur.valid())
            fs.gwait(ctx, cur);
        fs.gclose(ctx, fd);
    });
    EXPECT_EQ(0u, errors.load());
    EXPECT_EQ(0u, sys.hostFs().openCount());
}

} // namespace
} // namespace core
} // namespace gpufs
