/** @file End-to-end tests of the GpuFs API against the host daemon. */

#include <gtest/gtest.h>

#include <cstring>

#include "gpufs/system.hh"
#include "tests/testutil.hh"

namespace gpufs {
namespace core {
namespace {

class GpuFsApiTest : public ::testing::Test
{
  protected:
    GpuFsApiTest()
    {
        GpuFsParams p;
        p.pageSize = 64 * KiB;
        p.cacheBytes = 8 * MiB;    // 128 frames
        sys = std::make_unique<GpufsSystem>(1, p);
    }

    gpu::BlockCtx
    block()
    {
        return test::makeBlock(sys->device(0));
    }

    std::unique_ptr<GpufsSystem> sys;
};

TEST_F(GpuFsApiTest, OpenReadCloseRoundtrip)
{
    test::addRamp(sys->hostFs(), "/f", 1 * MiB);
    auto ctx = block();
    int fd = sys->fs().gopen(ctx, "/f", G_RDONLY);
    ASSERT_GE(fd, 0);

    std::vector<uint8_t> buf(100 * KiB);
    int64_t n = sys->fs().gread(ctx, fd, 12345, buf.size(), buf.data());
    ASSERT_EQ(int64_t(buf.size()), n);
    for (size_t i = 0; i < buf.size(); i += 997)
        EXPECT_EQ(test::rampByte(12345 + i), buf[i]);
    EXPECT_EQ(Status::Ok, sys->fs().gclose(ctx, fd));
}

TEST_F(GpuFsApiTest, OpenMissingFileFails)
{
    auto ctx = block();
    int fd = sys->fs().gopen(ctx, "/nope", G_RDONLY);
    EXPECT_EQ(-int(Status::NoEnt), fd);
}

TEST_F(GpuFsApiTest, SharedDescriptorRefCounts)
{
    // Second gopen of an open file must not RPC (§4.1).
    test::addRamp(sys->hostFs(), "/f", 4 * KiB);
    auto ctx = block();
    int fd1 = sys->fs().gopen(ctx, "/f", G_RDONLY);
    uint64_t rpcs = sys->fs().stats().counter("open_rpcs").get();
    int fd2 = sys->fs().gopen(ctx, "/f", G_RDONLY);
    EXPECT_EQ(fd1, fd2);
    EXPECT_EQ(rpcs, sys->fs().stats().counter("open_rpcs").get());
    sys->fs().gclose(ctx, fd1);
    // Still open via fd2's reference.
    uint8_t b;
    EXPECT_EQ(1, sys->fs().gread(ctx, fd2, 0, 1, &b));
    sys->fs().gclose(ctx, fd2);
}

TEST_F(GpuFsApiTest, ReadsHitTheBufferCacheOnReuse)
{
    test::addRamp(sys->hostFs(), "/f", 256 * KiB);
    auto ctx = block();
    int fd = sys->fs().gopen(ctx, "/f", G_RDONLY);
    std::vector<uint8_t> buf(256 * KiB);
    sys->fs().gread(ctx, fd, 0, buf.size(), buf.data());
    uint64_t misses = sys->fs().stats().counter("cache_misses").get();
    sys->fs().gread(ctx, fd, 0, buf.size(), buf.data());
    EXPECT_EQ(misses, sys->fs().stats().counter("cache_misses").get());
    EXPECT_GT(sys->fs().stats().counter("cache_hits").get(), 0u);
    sys->fs().gclose(ctx, fd);
}

TEST_F(GpuFsApiTest, ClosedFileCacheIsReusedOnReopen)
{
    // "gopen checks the closed file table first, and moves the file
    // cache back to the open file table" (§4.1).
    test::addRamp(sys->hostFs(), "/f", 128 * KiB);
    auto ctx = block();
    int fd = sys->fs().gopen(ctx, "/f", G_RDONLY);
    std::vector<uint8_t> buf(128 * KiB);
    sys->fs().gread(ctx, fd, 0, buf.size(), buf.data());
    sys->fs().gclose(ctx, fd);

    uint64_t misses = sys->fs().stats().counter("cache_misses").get();
    fd = sys->fs().gopen(ctx, "/f", G_RDONLY);
    sys->fs().gread(ctx, fd, 0, buf.size(), buf.data());
    EXPECT_EQ(misses, sys->fs().stats().counter("cache_misses").get());
    sys->fs().gclose(ctx, fd);
}

TEST_F(GpuFsApiTest, StaleClosedCacheInvalidatedOnReopen)
{
    // CPU writes the file between GPU close and reopen: the version
    // check must drop the stale cache (lazy invalidation, §4.4).
    test::addRamp(sys->hostFs(), "/f", 64 * KiB);
    auto ctx = block();
    int fd = sys->fs().gopen(ctx, "/f", G_RDONLY);
    uint8_t before;
    sys->fs().gread(ctx, fd, 0, 1, &before);
    sys->fs().gclose(ctx, fd);

    // Host-side mutation.
    int hfd = sys->hostFs().open("/f", hostfs::O_RDWR_F);
    uint8_t nv = uint8_t(~before);
    sys->hostFs().pwrite(hfd, &nv, 1, 0);
    sys->hostFs().close(hfd);

    fd = sys->fs().gopen(ctx, "/f", G_RDONLY);
    uint8_t after;
    sys->fs().gread(ctx, fd, 0, 1, &after);
    EXPECT_EQ(nv, after);
    EXPECT_EQ(1u, sys->fs().stats().counter("cache_invalidations").get());
    sys->fs().gclose(ctx, fd);
}

TEST_F(GpuFsApiTest, WriteReadBackThroughCache)
{
    auto ctx = block();
    int fd = sys->fs().gopen(ctx, "/new", G_RDWR | G_CREAT);
    ASSERT_GE(fd, 0);
    const char msg[] = "written on the gpu";
    ASSERT_EQ(int64_t(sizeof(msg)),
              sys->fs().gwrite(ctx, fd, 70000, sizeof(msg), msg));
    char back[sizeof(msg)] = {};
    ASSERT_EQ(int64_t(sizeof(msg)),
              sys->fs().gread(ctx, fd, 70000, sizeof(msg), back));
    EXPECT_STREQ(msg, back);
    sys->fs().gclose(ctx, fd);
}

TEST_F(GpuFsApiTest, CloseDoesNotSyncGfsyncDoes)
{
    auto ctx = block();
    int fd = sys->fs().gopen(ctx, "/out", G_RDWR | G_CREAT);
    uint8_t v = 0x77;
    sys->fs().gwrite(ctx, fd, 0, 1, &v);

    // Host must NOT see the data yet (close/sync decoupling, §3.2).
    hostfs::FileInfo info;
    sys->hostFs().stat("/out", &info);
    EXPECT_EQ(0u, info.size);

    EXPECT_EQ(Status::Ok, sys->fs().gfsync(ctx, fd));
    sys->hostFs().stat("/out", &info);
    EXPECT_EQ(1u, info.size);
    int hfd = sys->hostFs().open("/out", hostfs::O_RDONLY_F);
    uint8_t b = 0;
    sys->hostFs().pread(hfd, &b, 1, 0);
    EXPECT_EQ(0x77, b);
    sys->hostFs().close(hfd);
    sys->fs().gclose(ctx, fd);
}

TEST_F(GpuFsApiTest, GwronceSkipsFetchAndMergesDisjointWrites)
{
    auto ctx = block();
    int fd = sys->fs().gopen(ctx, "/once", G_GWRONCE);
    ASSERT_GE(fd, 0);
    std::vector<uint8_t> chunk(1000, 0x42);
    sys->fs().gwrite(ctx, fd, 5000, chunk.size(), chunk.data());
    // No host read may have happened (O_GWRONCE never fetches).
    EXPECT_EQ(0u, sys->daemon().stats().counter("bytes_to_gpu").get());
    EXPECT_EQ(Status::Ok, sys->fs().gfsync(ctx, fd));
    sys->fs().gclose(ctx, fd);

    int hfd = sys->hostFs().open("/once", hostfs::O_RDONLY_F);
    uint8_t b = 0;
    sys->hostFs().pread(hfd, &b, 1, 5500);
    EXPECT_EQ(0x42, b);
    sys->hostFs().close(hfd);
}

TEST_F(GpuFsApiTest, GwronceIsWriteOnly)
{
    auto ctx = block();
    int fd = sys->fs().gopen(ctx, "/once2", G_GWRONCE);
    uint8_t b;
    EXPECT_EQ(-int64_t(Status::Inval), sys->fs().gread(ctx, fd, 0, 1, &b));
    sys->fs().gclose(ctx, fd);
}

TEST_F(GpuFsApiTest, NosyncNeverReachesHost)
{
    auto ctx = block();
    int fd = sys->fs().gopen(ctx, "/tmp1", G_RDWR | G_NOSYNC);
    ASSERT_GE(fd, 0);
    std::vector<uint8_t> data(10 * KiB, 0x5A);
    sys->fs().gwrite(ctx, fd, 0, data.size(), data.data());
    EXPECT_EQ(Status::Ok, sys->fs().gfsync(ctx, fd));   // no-op
    hostfs::FileInfo info;
    sys->hostFs().stat("/tmp1", &info);
    EXPECT_EQ(0u, info.size);
    // But the GPU reads its own data back.
    std::vector<uint8_t> back(data.size());
    EXPECT_EQ(int64_t(back.size()),
              sys->fs().gread(ctx, fd, 0, back.size(), back.data()));
    EXPECT_EQ(data, back);
    sys->fs().gclose(ctx, fd);
}

TEST_F(GpuFsApiTest, ReadOnlyWriteRejected)
{
    test::addRamp(sys->hostFs(), "/ro", 100);
    auto ctx = block();
    int fd = sys->fs().gopen(ctx, "/ro", G_RDONLY);
    uint8_t b = 0;
    EXPECT_EQ(-int64_t(Status::ReadOnlyFile),
              sys->fs().gwrite(ctx, fd, 0, 1, &b));
    sys->fs().gclose(ctx, fd);
}

TEST_F(GpuFsApiTest, GfstatReportsOpenTimeSize)
{
    test::addRamp(sys->hostFs(), "/s", 5555);
    auto ctx = block();
    int fd = sys->fs().gopen(ctx, "/s", G_RDONLY);
    GStat st;
    ASSERT_EQ(Status::Ok, sys->fs().gfstat(ctx, fd, &st));
    EXPECT_EQ(5555u, st.size);
    EXPECT_GT(st.ino, 0u);
    sys->fs().gclose(ctx, fd);
}

TEST_F(GpuFsApiTest, GftruncateShrinksAndReclaims)
{
    test::addRamp(sys->hostFs(), "/t", 256 * KiB);
    auto ctx = block();
    int fd = sys->fs().gopen(ctx, "/t", G_RDWR);
    std::vector<uint8_t> buf(256 * KiB);
    sys->fs().gread(ctx, fd, 0, buf.size(), buf.data());
    ASSERT_EQ(Status::Ok, sys->fs().gftruncate(ctx, fd, 100));
    GStat st;
    sys->fs().gfstat(ctx, fd, &st);
    EXPECT_EQ(100u, st.size);
    hostfs::FileInfo info;
    sys->hostFs().stat("/t", &info);
    EXPECT_EQ(100u, info.size);
    sys->fs().gclose(ctx, fd);
}

TEST_F(GpuFsApiTest, GunlinkRemovesFile)
{
    test::addRamp(sys->hostFs(), "/u", 1 * KiB);
    auto ctx = block();
    EXPECT_EQ(Status::Ok, sys->fs().gunlink(ctx, "/u"));
    EXPECT_EQ(Status::NoEnt, sys->hostFs().stat("/u", nullptr));
    EXPECT_EQ(-int(Status::NoEnt), sys->fs().gopen(ctx, "/u", G_RDONLY));
}

TEST_F(GpuFsApiTest, GmmapReturnsPrefixWithinPage)
{
    test::addRamp(sys->hostFs(), "/m", 256 * KiB);
    auto ctx = block();
    int fd = sys->fs().gopen(ctx, "/m", G_RDONLY);
    uint64_t mapped = 0;
    // Request 100 KiB at 60 KiB: only 4 KiB fit in the 64 KiB page.
    void *p = sys->fs().gmmap(ctx, fd, 60 * KiB, 100 * KiB, &mapped);
    ASSERT_NE(nullptr, p);
    EXPECT_EQ(4 * KiB, mapped);
    EXPECT_EQ(test::rampByte(60 * KiB), *static_cast<uint8_t *>(p));
    EXPECT_EQ(Status::Ok, sys->fs().gmunmap(ctx, p));
    sys->fs().gclose(ctx, fd);
}

TEST_F(GpuFsApiTest, MappedPagesSurviveEvictionPressure)
{
    // Map a page, then stream enough data to evict everything else;
    // the mapped page must stay valid (pins block eviction).
    test::addRamp(sys->hostFs(), "/pin", 64 * KiB);
    test::addRamp(sys->hostFs(), "/stream", 16 * MiB);  // 2x cache
    auto ctx = block();
    int pinfd = sys->fs().gopen(ctx, "/pin", G_RDONLY);
    uint64_t mapped = 0;
    void *p = sys->fs().gmmap(ctx, pinfd, 0, 64 * KiB, &mapped);
    ASSERT_NE(nullptr, p);
    uint8_t expect = *static_cast<uint8_t *>(p);

    int sfd = sys->fs().gopen(ctx, "/stream", G_RDONLY);
    std::vector<uint8_t> buf(64 * KiB);
    for (uint64_t off = 0; off < 16 * MiB; off += buf.size())
        ASSERT_GT(sys->fs().gread(ctx, sfd, off, buf.size(), buf.data()), 0);
    EXPECT_GT(sys->fs().stats().counter("pages_reclaimed").get(), 0u);
    EXPECT_EQ(expect, *static_cast<uint8_t *>(p));

    sys->fs().gmunmap(ctx, p);
    sys->fs().gclose(ctx, pinfd);
    sys->fs().gclose(ctx, sfd);
}

TEST_F(GpuFsApiTest, GmsyncWritesBackOnePage)
{
    auto ctx = block();
    int fd = sys->fs().gopen(ctx, "/ms", G_RDWR | G_CREAT);
    uint64_t mapped = 0;
    void *p = sys->fs().gmmap(ctx, fd, 0, 64 * KiB, &mapped);
    ASSERT_NE(nullptr, p);
    std::memset(p, 0x3C, 512);
    // gmmap'd writes need explicit dirty marking via gwrite... no:
    // writes through the mapping are only pushed by gmsync if the page
    // is dirty. Use gwrite for the dirty bookkeeping, then gmsync.
    sys->fs().gmunmap(ctx, p);
    std::vector<uint8_t> data(512, 0x3C);
    sys->fs().gwrite(ctx, fd, 0, data.size(), data.data());
    p = sys->fs().gmmap(ctx, fd, 0, 64 * KiB, &mapped);
    EXPECT_EQ(Status::Ok, sys->fs().gmsync(ctx, p));
    hostfs::FileInfo info;
    sys->hostFs().stat("/ms", &info);
    EXPECT_EQ(512u, info.size);
    sys->fs().gmunmap(ctx, p);
    sys->fs().gclose(ctx, fd);
}

TEST_F(GpuFsApiTest, EvictionWritesDirtyPagesBack)
{
    // Fill the entire cache with dirty data from one file, then read a
    // second file: last-resort reclaim must write dirty pages home
    // (the paging policy reaches writable files only after closed and
    // read-only files, §4.2 — here there is nothing else to take).
    auto ctx = block();
    int wfd = sys->fs().gopen(ctx, "/dirty", G_RDWR | G_CREAT);
    std::vector<uint8_t> data(64 * KiB, 0x99);
    for (uint64_t off = 0; off < 8 * MiB; off += data.size())
        sys->fs().gwrite(ctx, wfd, off, data.size(), data.data());

    test::addRamp(sys->hostFs(), "/stream", 2 * MiB);
    int sfd = sys->fs().gopen(ctx, "/stream", G_RDONLY);
    std::vector<uint8_t> buf(64 * KiB);
    for (uint64_t off = 0; off < 2 * MiB; off += buf.size())
        sys->fs().gread(ctx, sfd, off, buf.size(), buf.data());

    // Some dirty pages were evicted; their data must be on the host.
    hostfs::FileInfo info;
    sys->hostFs().stat("/dirty", &info);
    EXPECT_GT(info.size, 0u);
    // And everything still readable through GPUfs (refetches).
    std::vector<uint8_t> back(64 * KiB);
    ASSERT_EQ(int64_t(back.size()),
              sys->fs().gread(ctx, wfd, 0, back.size(), back.data()));
    EXPECT_EQ(0x99, back[0]);
    EXPECT_EQ(0x99, back[back.size() - 1]);
    sys->fs().gclose(ctx, wfd);
    sys->fs().gclose(ctx, sfd);
}

TEST_F(GpuFsApiTest, DirtyCloseKeepsHostFdUntilClean)
{
    auto ctx = block();
    int fd = sys->fs().gopen(ctx, "/d", G_RDWR | G_CREAT);
    uint8_t v = 1;
    sys->fs().gwrite(ctx, fd, 0, 1, &v);
    sys->fs().gclose(ctx, fd);
    // Dirty close: host fd retained (footnote-2 handling).
    EXPECT_EQ(1u, sys->hostFs().openCount());

    // Reopen, sync, close: now clean, fd released.
    fd = sys->fs().gopen(ctx, "/d", G_RDWR);
    sys->fs().gfsync(ctx, fd);
    sys->fs().gclose(ctx, fd);
    EXPECT_EQ(0u, sys->hostFs().openCount());
}

TEST_F(GpuFsApiTest, ReadPastEofReturnsZero)
{
    test::addRamp(sys->hostFs(), "/eof", 100);
    auto ctx = block();
    int fd = sys->fs().gopen(ctx, "/eof", G_RDONLY);
    uint8_t b;
    EXPECT_EQ(0, sys->fs().gread(ctx, fd, 200, 1, &b));
    // Partially past EOF: clamped.
    std::vector<uint8_t> buf(100);
    EXPECT_EQ(50, sys->fs().gread(ctx, fd, 50, 100, buf.data()));
    sys->fs().gclose(ctx, fd);
}

TEST_F(GpuFsApiTest, BadFdRejected)
{
    auto ctx = block();
    uint8_t b;
    EXPECT_EQ(-int64_t(Status::BadFd),
              sys->fs().gread(ctx, 99, 0, 1, &b));
    EXPECT_EQ(Status::BadFd, sys->fs().gclose(ctx, 99));
    EXPECT_EQ(Status::BadFd, sys->fs().gfsync(ctx, -1));
}

TEST_F(GpuFsApiTest, VirtualTimeAdvancesWithIo)
{
    test::addRamp(sys->hostFs(), "/t", 1 * MiB);
    auto ctx = block();
    Time t0 = ctx.now();
    int fd = sys->fs().gopen(ctx, "/t", G_RDONLY);
    std::vector<uint8_t> buf(1 * MiB);
    sys->fs().gread(ctx, fd, 0, buf.size(), buf.data());
    // At minimum the PCIe transfer of 1 MiB must have been charged.
    EXPECT_GE(ctx.now() - t0,
              transferTime(1 * MiB, sys->sim().params.pcieBwH2DMBps));
    sys->fs().gclose(ctx, fd);
}

TEST_F(GpuFsApiTest, ConcurrentBlocksReadCorrectly)
{
    test::addRamp(sys->hostFs(), "/par", 4 * MiB);
    std::atomic<uint64_t> errors{0};
    gpu::launch(sys->device(0), 56, 256, [&](gpu::BlockCtx &ctx) {
        GpuFs &fs = sys->fs();
        int fd = fs.gopen(ctx, "/par", G_RDONLY);
        if (fd < 0) {
            errors.fetch_add(1);
            return;
        }
        std::vector<uint8_t> buf(32 * KiB);
        uint64_t span = 4 * MiB / ctx.numBlocks();
        uint64_t base = ctx.blockId() * span;
        for (uint64_t off = base; off + buf.size() <= base + span;
             off += buf.size()) {
            if (fs.gread(ctx, fd, off, buf.size(), buf.data()) !=
                int64_t(buf.size())) {
                errors.fetch_add(1);
                continue;
            }
            for (size_t i = 0; i < buf.size(); i += 4096) {
                if (buf[i] != test::rampByte(off + i))
                    errors.fetch_add(1);
            }
        }
        fs.gclose(ctx, fd);
    });
    EXPECT_EQ(0u, errors.load());
    EXPECT_EQ(0u, sys->hostFs().openCount());   // all refs drained
}

// Regression: gmmap pins like every other API call — a transient
// NoSpace (frames momentarily unreclaimable while evictions demote into
// the victim tier) is retried, not handed to the caller as a null
// mapping. Shape of the skewed-reuse bench: 8 blocks walk a 128-page
// file, 3 rounds, 32-frame arena, tier on.
TEST(GmmapPressure, EveryMapSucceedsThroughASmallArena)
{
    constexpr uint64_t kPage = 64 * KiB;
    constexpr uint64_t kFileBytes = 128 * kPage;
    constexpr unsigned kBlocks = 8, kRounds = 3;
    GpuFsParams p;
    p.pageSize = kPage;
    p.cacheBytes = 32 * kPage;
    p.readAheadPages = 0;
    p.storageBackend = storage::BackendKind::Direct;
    p.victimCachePages = 2 * kFileBytes / kPage;
    GpufsSystem sys(1, p);
    test::addRamp(sys.hostFs(), "/walk", kFileBytes);

    std::atomic<uint64_t> null_maps{0}, bad_bytes{0};
    gpu::launch(sys.device(0), kBlocks, 512, [&](gpu::BlockCtx &ctx) {
        GpuFs &fs = sys.fs();
        int fd = fs.gopen(ctx, "/walk", G_RDONLY);
        ASSERT_GE(fd, 0);
        const uint64_t span = kFileBytes / kBlocks;
        const uint64_t base = ctx.blockId() * span;
        for (unsigned round = 0; round < kRounds; ++round) {
            for (uint64_t off = base; off < base + span;) {
                uint64_t mapped = 0;
                auto *ptr = static_cast<const uint8_t *>(
                    fs.gmmap(ctx, fd, off, base + span - off, &mapped));
                if (!ptr || mapped == 0) {
                    null_maps.fetch_add(1);
                    break;
                }
                if (ptr[0] != test::rampByte(off))
                    bad_bytes.fetch_add(1);
                fs.gmunmap(ctx, const_cast<uint8_t *>(ptr));
                off += mapped;
            }
        }
        fs.gclose(ctx, fd);
    });
    EXPECT_EQ(0u, null_maps.load());
    EXPECT_EQ(0u, bad_bytes.load());
}

} // namespace
} // namespace core
} // namespace gpufs
