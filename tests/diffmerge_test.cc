/** @file Tests of the diff-and-merge write-sharing extension (§3.1's
 *  full protocol, left unimplemented by the paper's prototype). */

#include <gtest/gtest.h>

#include <cstring>
#include <thread>

#include "gpufs/system.hh"
#include "tests/testutil.hh"

namespace gpufs {
namespace core {
namespace {

class DiffMergeTest : public ::testing::Test
{
  protected:
    DiffMergeTest()
    {
        GpuFsParams p;
        p.pageSize = 64 * KiB;
        p.cacheBytes = 16 * MiB;
        p.enableDiffMerge = true;
        sys = std::make_unique<GpufsSystem>(2, p);
    }

    gpu::BlockCtx
    block(unsigned gpu)
    {
        return test::makeBlock(sys->device(gpu));
    }

    std::unique_ptr<GpufsSystem> sys;
};

TEST_F(DiffMergeTest, RoundtripStillWorks)
{
    test::addRamp(sys->hostFs(), "/f", 256 * KiB);
    auto ctx = block(0);
    int fd = sys->fs(0).gopen(ctx, "/f", G_RDWR);
    ASSERT_GE(fd, 0);
    std::vector<uint8_t> data(1000, 0x7E);
    ASSERT_EQ(1000, sys->fs(0).gwrite(ctx, fd, 5000, 1000, data.data()));
    std::vector<uint8_t> back(1000);
    ASSERT_EQ(1000, sys->fs(0).gread(ctx, fd, 5000, 1000, back.data()));
    EXPECT_EQ(data, back);
    ASSERT_EQ(Status::Ok, sys->fs(0).gfsync(ctx, fd));
    sys->fs(0).gclose(ctx, fd);

    int hfd = sys->hostFs().open("/f", hostfs::O_RDONLY_F);
    uint8_t b;
    sys->hostFs().pread(hfd, &b, 1, 5500);
    EXPECT_EQ(0x7E, b);
    // Unmodified bytes survive.
    sys->hostFs().pread(hfd, &b, 1, 4999);
    EXPECT_EQ(test::rampByte(4999), b);
    sys->hostFs().close(hfd);
}

TEST_F(DiffMergeTest, FailedSyncKeepsBytesForTheRetry)
{
    // The diff folds the working bytes into the pristine copy before
    // the WritePages RPC returns. A failed write must roll that fold
    // back, or the retry diffs to nothing and reports Ok with the bytes
    // never written.
    test::addRamp(sys->hostFs(), "/f", 256 * KiB);
    auto ctx = block(0);
    int fd = sys->fs(0).gopen(ctx, "/f", G_RDWR);
    ASSERT_GE(fd, 0);
    std::vector<uint8_t> data(1000, 0x7E);
    ASSERT_EQ(1000, sys->fs(0).gwrite(ctx, fd, 5000, 1000, data.data()));
    sys->sim().faults.injectIoError(sim::FaultOp::HostWrite, 100);
    EXPECT_EQ(Status::IoError, sys->fs(0).gfsync(ctx, fd));
    sys->sim().faults.reset();
    ASSERT_EQ(Status::Ok, sys->fs(0).gfsync(ctx, fd));
    sys->fs(0).gclose(ctx, fd);

    int hfd = sys->hostFs().open("/f", hostfs::O_RDONLY_F);
    uint8_t b;
    sys->hostFs().pread(hfd, &b, 1, 5500);
    EXPECT_EQ(0x7E, b);
    sys->hostFs().pread(hfd, &b, 1, 4999);
    EXPECT_EQ(test::rampByte(4999), b);
    sys->hostFs().close(hfd);
}

TEST_F(DiffMergeTest, TwoGpuWritersAdmittedConcurrently)
{
    test::addRamp(sys->hostFs(), "/shared", 128 * KiB);
    auto ctx0 = block(0);
    auto ctx1 = block(1);
    int w0 = sys->fs(0).gopen(ctx0, "/shared", G_RDWR);
    ASSERT_GE(w0, 0);
    // Without diff-merge this would be Busy (single-writer prototype).
    int w1 = sys->fs(1).gopen(ctx1, "/shared", G_RDWR);
    ASSERT_GE(w1, 0);
    sys->fs(0).gclose(ctx0, w0);
    sys->fs(1).gclose(ctx1, w1);
}

TEST_F(DiffMergeTest, FalseSharingOfOnePageMergesCorrectly)
{
    // The §3.1 scenario: two GPUs modify different parts of the SAME
    // buffer-cache page. Each write-back diffs against its pristine
    // copy, so neither reverts the other's bytes.
    test::addRamp(sys->hostFs(), "/page", 64 * KiB);   // exactly one page
    auto ctx0 = block(0);
    auto ctx1 = block(1);
    int w0 = sys->fs(0).gopen(ctx0, "/page", G_RDWR);
    int w1 = sys->fs(1).gopen(ctx1, "/page", G_RDWR);
    ASSERT_GE(w0, 0);
    ASSERT_GE(w1, 0);

    // Both fetch the page (pristine snapshots taken), then write
    // disjoint ranges of it.
    std::vector<uint8_t> a(100, 0xAA), b(100, 0xBB);
    ASSERT_EQ(100, sys->fs(0).gwrite(ctx0, w0, 1000, 100, a.data()));
    ASSERT_EQ(100, sys->fs(1).gwrite(ctx1, w1, 40000, 100, b.data()));
    ASSERT_EQ(Status::Ok, sys->fs(0).gfsync(ctx0, w0));
    ASSERT_EQ(Status::Ok, sys->fs(1).gfsync(ctx1, w1));
    sys->fs(0).gclose(ctx0, w0);
    sys->fs(1).gclose(ctx1, w1);

    int hfd = sys->hostFs().open("/page", hostfs::O_RDONLY_F);
    std::vector<uint8_t> all(64 * KiB);
    sys->hostFs().pread(hfd, all.data(), all.size(), 0);
    sys->hostFs().close(hfd);
    EXPECT_EQ(0xAA, all[1000]);
    EXPECT_EQ(0xAA, all[1099]);
    EXPECT_EQ(0xBB, all[40000]);
    EXPECT_EQ(0xBB, all[40099]);
    // Untouched bytes keep the original content.
    EXPECT_EQ(test::rampByte(0), all[0]);
    EXPECT_EQ(test::rampByte(20000), all[20000]);
}

TEST_F(DiffMergeTest, PristineRefreshAfterSync)
{
    // After a sync, the pristine must track the propagated state:
    // re-writing the same range with new values must propagate again.
    test::addRamp(sys->hostFs(), "/re", 64 * KiB);
    auto ctx = block(0);
    int fd = sys->fs(0).gopen(ctx, "/re", G_RDWR);
    uint8_t v1 = 0x11, v2 = 0x22;
    sys->fs(0).gwrite(ctx, fd, 100, 1, &v1);
    sys->fs(0).gfsync(ctx, fd);
    sys->fs(0).gwrite(ctx, fd, 100, 1, &v2);
    sys->fs(0).gfsync(ctx, fd);
    sys->fs(0).gclose(ctx, fd);

    int hfd = sys->hostFs().open("/re", hostfs::O_RDONLY_F);
    uint8_t b;
    sys->hostFs().pread(hfd, &b, 1, 100);
    EXPECT_EQ(0x22, b);
    sys->hostFs().close(hfd);
}

TEST_F(DiffMergeTest, RevertToOriginalValuePropagates)
{
    // Tricky diff case: write X over original O, sync, write O back.
    // The second sync's diff is vs the refreshed pristine (=X), so the
    // revert to O must still propagate.
    test::addRamp(sys->hostFs(), "/rev", 64 * KiB);
    uint8_t orig = test::rampByte(200);
    auto ctx = block(0);
    int fd = sys->fs(0).gopen(ctx, "/rev", G_RDWR);
    uint8_t x = uint8_t(~orig);
    sys->fs(0).gwrite(ctx, fd, 200, 1, &x);
    sys->fs(0).gfsync(ctx, fd);
    sys->fs(0).gwrite(ctx, fd, 200, 1, &orig);
    sys->fs(0).gfsync(ctx, fd);
    sys->fs(0).gclose(ctx, fd);

    int hfd = sys->hostFs().open("/rev", hostfs::O_RDONLY_F);
    uint8_t b;
    sys->hostFs().pread(hfd, &b, 1, 200);
    EXPECT_EQ(orig, b);
    sys->hostFs().close(hfd);
}

TEST_F(DiffMergeTest, PristineFramesAreReclaimedWithPages)
{
    // Write through a working set larger than the cache: every evicted
    // diff-merge page must release BOTH frames (the assert in
    // FrameArena::free catches leaks); afterwards, dropping the file
    // returns the arena to fully free.
    GpuFsParams p;
    p.pageSize = 16 * KiB;
    p.cacheBytes = 1 * MiB;      // 64 frames; pairs consume 2 each
    p.enableDiffMerge = true;
    GpufsSystem small(1, p);
    test::addRamp(small.hostFs(), "/big", 2 * MiB);
    auto ctx = test::makeBlock(small.device(0));
    int fd = small.fs().gopen(ctx, "/big", G_RDWR);
    std::vector<uint8_t> rec(4 * KiB, 0x3A);
    for (uint64_t off = 0; off + rec.size() <= 2 * MiB;
         off += 16 * KiB) {
        ASSERT_EQ(int64_t(rec.size()),
                  small.fs().gwrite(ctx, fd, off, rec.size(), rec.data()));
    }
    EXPECT_GT(small.fs().stats().counter("pages_reclaimed").get(), 0u);
    ASSERT_EQ(Status::Ok, small.fs().gfsync(ctx, fd));
    small.fs().gclose(ctx, fd);
    ASSERT_EQ(Status::Ok, small.fs().gunlink(ctx, "/big"));
    EXPECT_EQ(small.fs().arena().numFrames(),
              small.fs().arena().freeCount());
}

TEST_F(DiffMergeTest, ConcurrentInterleavedWritersStressMerge)
{
    // Two GPUs interleave 64-byte records across the same region; all
    // records must survive on the host.
    const uint64_t kRegion = 256 * KiB;
    test::addBytes(sys->hostFs(), "/ilv",
                   std::vector<uint8_t>(kRegion, 0x00));
    std::vector<std::thread> gpus;
    for (unsigned g = 0; g < 2; ++g) {
        gpus.emplace_back([&, g] {
            gpu::launch(sys->device(g), 8, 128, [&](gpu::BlockCtx &ctx) {
                GpuFs &fs = sys->fs(g);
                int fd = fs.gopen(ctx, "/ilv", G_RDWR);
                ASSERT_GE(fd, 0);
                uint8_t stamp = uint8_t(0x10 * (g + 1) + ctx.blockId());
                std::vector<uint8_t> rec(64, stamp);
                // Record slot: interleave by gpu and block.
                for (uint64_t s = g * 8 + ctx.blockId();
                     (s + 1) * 64 <= kRegion; s += 16) {
                    fs.gwrite(ctx, fd, s * 64, 64, rec.data());
                }
                fs.gfsync(ctx, fd);
                fs.gclose(ctx, fd);
            });
        });
    }
    for (auto &t : gpus)
        t.join();

    int hfd = sys->hostFs().open("/ilv", hostfs::O_RDONLY_F);
    std::vector<uint8_t> all(kRegion);
    sys->hostFs().pread(hfd, all.data(), all.size(), 0);
    sys->hostFs().close(hfd);
    unsigned bad = 0;
    for (uint64_t s = 0; (s + 1) * 64 <= kRegion; ++s) {
        unsigned g = unsigned(s % 16) / 8;
        unsigned b = unsigned(s % 16) % 8;
        uint8_t expect = uint8_t(0x10 * (g + 1) + b);
        if (all[s * 64] != expect || all[s * 64 + 63] != expect)
            ++bad;
    }
    EXPECT_EQ(0u, bad);
}

TEST_F(DiffMergeTest, DisabledModeStillSingleWriter)
{
    GpuFsParams p;
    p.pageSize = 64 * KiB;
    p.cacheBytes = 8 * MiB;
    p.enableDiffMerge = false;     // prototype behaviour
    GpufsSystem proto(2, p);
    test::addRamp(proto.hostFs(), "/s", 4 * KiB);
    auto ctx0 = test::makeBlock(proto.device(0));
    auto ctx1 = test::makeBlock(proto.device(1));
    int w0 = proto.fs(0).gopen(ctx0, "/s", G_RDWR);
    ASSERT_GE(w0, 0);
    EXPECT_EQ(-int(Status::Busy), proto.fs(1).gopen(ctx1, "/s", G_RDWR));
    proto.fs(0).gclose(ctx0, w0);
}

} // namespace
} // namespace core
} // namespace gpufs
