/**
 * @file
 * Batched write-back (RpcOp::WritePages) tests: multi-extent
 * coalescing correctness, failure propagation through the batched
 * path, dirty eviction racing writers under paging, and dirty closes
 * drained by a later sync.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <vector>

#include "gpufs/system.hh"
#include "tests/testutil.hh"

namespace gpufs {
namespace core {
namespace {

/** Writable provider whose writes start failing once a fuse burns
 *  (and can be healed), for write-back failure injection. */
class FailingWriteContent : public hostfs::ContentProvider
{
  public:
    void
    readAt(uint64_t offset, uint64_t len, uint8_t *dst) override
    {
        std::lock_guard<std::mutex> lock(mtx);
        for (uint64_t i = 0; i < len; ++i) {
            uint64_t off = offset + i;
            dst[i] = off < bytes.size() ? bytes[off] : 0;
        }
    }

    bool
    writeAt(uint64_t offset, uint64_t len, const uint8_t *src) override
    {
        std::lock_guard<std::mutex> lock(mtx);
        if (failing)
            return false;
        if (offset + len > bytes.size())
            bytes.resize(offset + len, 0);
        std::memcpy(bytes.data() + offset, src, len);
        return true;
    }

    bool writable() const override { return true; }

    void
    setFailing(bool f)
    {
        std::lock_guard<std::mutex> lock(mtx);
        failing = f;
    }

  private:
    std::mutex mtx;
    bool failing = false;
    std::vector<uint8_t> bytes;
};

class WritebackBatchTest : public ::testing::Test
{
  protected:
    static constexpr uint64_t kPage = 16 * KiB;

    void
    makeSystem(const GpuFsParams &p)
    {
        sys = std::make_unique<GpufsSystem>(1, p);
    }

    GpuFsParams
    baseParams()
    {
        GpuFsParams p;
        p.pageSize = kPage;
        p.cacheBytes = 16 * MiB;
        return p;
    }

    uint64_t
    stat(const char *name)
    {
        return sys->fs().stats().counter(name).get();
    }

    std::unique_ptr<GpufsSystem> sys;
};

// ---------------------------------------------------------------------
// Multi-extent coalescing
// ---------------------------------------------------------------------

TEST_F(WritebackBatchTest, CoalescedExtentsLandAtRightOffsets)
{
    makeSystem(baseParams());
    // 100 pages spans two radix leaves (64 pages each): the write-back
    // offsets must come out right across the leaf boundary too.
    constexpr unsigned kPages = 100;
    constexpr uint64_t kFile = kPages * kPage;
    test::addRamp(sys->hostFs(), "/f", kFile);

    auto ctx = test::makeBlock(sys->device(0));
    int fd = sys->fs().gopen(ctx, "/f", G_RDWR);
    ASSERT_GE(fd, 0);

    // One small extent per page at a page-dependent offset: write-back
    // must gather 100 sub-page extents, not whole pages.
    std::vector<uint8_t> stamp(100);
    for (unsigned pg = 0; pg < kPages; ++pg) {
        for (size_t i = 0; i < stamp.size(); ++i)
            stamp[i] = uint8_t(pg * 7 + i);
        uint64_t off = uint64_t(pg) * kPage + 37 + pg;  // varies per page
        ASSERT_EQ(int64_t(stamp.size()),
                  sys->fs().gwrite(ctx, fd, off, stamp.size(),
                                   stamp.data()));
    }
    ASSERT_EQ(Status::Ok, sys->fs().gfsync(ctx, fd));

    // All 100 page extents rode batched WritePages RPCs at the full
    // kMaxBatchPages batch factor.
    EXPECT_EQ(kPages, stat("batch_write_pages"));
    EXPECT_EQ((kPages + rpc::kMaxBatchPages - 1) / rpc::kMaxBatchPages,
              stat("batch_write_rpcs"));

    // Bytes landed exactly where written; neighbours kept the ramp.
    int hfd = sys->hostFs().open("/f", hostfs::O_RDONLY_F);
    ASSERT_GE(hfd, 0);
    std::vector<uint8_t> page(kPage);
    for (unsigned pg = 0; pg < kPages; ++pg) {
        sys->hostFs().pread(hfd, page.data(), kPage,
                            uint64_t(pg) * kPage);
        uint64_t lo = 37 + pg;
        for (uint64_t i = 0; i < kPage; ++i) {
            uint64_t off = uint64_t(pg) * kPage + i;
            uint8_t want = (i >= lo && i < lo + 100)
                ? uint8_t(pg * 7 + (i - lo))
                : test::rampByte(off);
            ASSERT_EQ(want, page[i]) << "page " << pg << " byte " << i;
        }
    }
    sys->hostFs().close(hfd);
    sys->fs().gclose(ctx, fd);
}

TEST_F(WritebackBatchTest, WronceZeroDiffRidesBatchedPath)
{
    makeSystem(baseParams());
    auto ctx = test::makeBlock(sys->device(0));
    int fd = sys->fs().gopen(ctx, "/once", G_GWRONCE);
    ASSERT_GE(fd, 0);

    // Chunks with interior zeros: the daemon's zero-diff must split
    // them into non-zero runs inside one gathered pwritev.
    constexpr unsigned kPages = 20;
    std::vector<uint8_t> chunk(kPage, 0);
    for (unsigned pg = 0; pg < kPages; ++pg) {
        std::fill(chunk.begin(), chunk.end(), uint8_t(0));
        std::memset(chunk.data() + 10, pg + 1, 50);
        std::memset(chunk.data() + 1000, pg + 101, 50);
        ASSERT_EQ(int64_t(kPage),
                  sys->fs().gwrite(ctx, fd, uint64_t(pg) * kPage, kPage,
                                   chunk.data()));
    }
    ASSERT_EQ(Status::Ok, sys->fs().gfsync(ctx, fd));
    EXPECT_GE(stat("batch_write_pages"), uint64_t(kPages));

    int hfd = sys->hostFs().open("/once", hostfs::O_RDONLY_F);
    ASSERT_GE(hfd, 0);
    std::vector<uint8_t> got(kPage);
    for (unsigned pg = 0; pg < kPages; ++pg) {
        sys->hostFs().pread(hfd, got.data(), kPage, uint64_t(pg) * kPage);
        EXPECT_EQ(uint8_t(pg + 1), got[10]) << pg;
        EXPECT_EQ(uint8_t(pg + 1), got[59]) << pg;
        EXPECT_EQ(0u, got[500]) << pg;
        EXPECT_EQ(uint8_t(pg + 101), got[1000]) << pg;
        EXPECT_EQ(uint8_t(pg + 101), got[1049]) << pg;
    }
    sys->hostFs().close(hfd);
    sys->fs().gclose(ctx, fd);
}

TEST_F(WritebackBatchTest, TruncateFlushesThroughBatchedPath)
{
    makeSystem(baseParams());
    auto ctx = test::makeBlock(sys->device(0));
    int fd = sys->fs().gopen(ctx, "/t", G_RDWR | G_CREAT);
    ASSERT_GE(fd, 0);
    std::vector<uint8_t> buf(kPage, 0xAB);
    for (unsigned pg = 0; pg < 40; ++pg) {
        ASSERT_EQ(int64_t(kPage),
                  sys->fs().gwrite(ctx, fd, uint64_t(pg) * kPage, kPage,
                                   buf.data()));
    }
    // Truncate below the written range: dirty pages under the cut are
    // pushed home (batched), pages beyond are dropped.
    ASSERT_EQ(Status::Ok, sys->fs().gftruncate(ctx, fd, 10 * kPage));
    EXPECT_GE(stat("batch_write_rpcs"), 1u);

    hostfs::FileInfo info;
    ASSERT_EQ(Status::Ok, sys->hostFs().stat("/t", &info));
    EXPECT_EQ(10 * kPage, info.size);
    int hfd = sys->hostFs().open("/t", hostfs::O_RDONLY_F);
    uint8_t b = 0;
    sys->hostFs().pread(hfd, &b, 1, 5 * kPage + 123);
    EXPECT_EQ(0xAB, b);
    sys->hostFs().close(hfd);
    sys->fs().gclose(ctx, fd);
}

// ---------------------------------------------------------------------
// Failure propagation
// ---------------------------------------------------------------------

TEST_F(WritebackBatchTest, BatchedWritebackFailureRestoresDirtyPages)
{
    makeSystem(baseParams());
    auto owned = std::make_unique<FailingWriteContent>();
    FailingWriteContent *content = owned.get();
    ASSERT_EQ(Status::Ok,
              sys->hostFs().addFile("/flaky", std::move(owned),
                                    30 * kPage));

    auto ctx = test::makeBlock(sys->device(0));
    int fd = sys->fs().gopen(ctx, "/flaky", G_RDWR);
    ASSERT_GE(fd, 0);
    std::vector<uint8_t> buf(kPage, 0x7E);
    for (unsigned pg = 0; pg < 30; ++pg) {
        ASSERT_EQ(int64_t(kPage),
                  sys->fs().gwrite(ctx, fd, uint64_t(pg) * kPage, kPage,
                                   buf.data()));
    }

    content->setFailing(true);
    EXPECT_NE(Status::Ok, sys->fs().gfsync(ctx, fd));

    // The failed batch restored its extents: healing the file and
    // retrying the sync lands every byte.
    content->setFailing(false);
    EXPECT_EQ(Status::Ok, sys->fs().gfsync(ctx, fd));
    int hfd = sys->hostFs().open("/flaky", hostfs::O_RDONLY_F);
    ASSERT_GE(hfd, 0);
    for (unsigned pg = 0; pg < 30; ++pg) {
        uint8_t b = 0;
        sys->hostFs().pread(hfd, &b, 1, uint64_t(pg) * kPage + 99);
        EXPECT_EQ(0x7E, b) << "page " << pg;
    }
    sys->hostFs().close(hfd);
    sys->fs().gclose(ctx, fd);
}

// ---------------------------------------------------------------------
// Dirty eviction and dirty close
// ---------------------------------------------------------------------

TEST_F(WritebackBatchTest, DirtyEvictionUnderPagingKeepsDataIntact)
{
    GpuFsParams p;
    p.pageSize = kPage;
    p.cacheBytes = 2 * MiB;          // 128 frames: constant paging
    p.maxOpenFiles = 64;
    makeSystem(p);

    constexpr unsigned kFiles = 8;
    constexpr uint64_t kFileSize = 512 * KiB;   // 4 MiB working set
    for (unsigned f = 0; f < kFiles; ++f)
        test::addRamp(sys->hostFs(), "/in" + std::to_string(f), kFileSize);

    // Readers force eviction (including of dirty pages, whose
    // write-back races other blocks' writers and syncs) while writers
    // dirty their own output files.
    std::atomic<uint64_t> errors{0};
    gpu::launch(sys->device(0), 24, 256, [&](gpu::BlockCtx &ctx) {
        GpuFs &fs = sys->fs();
        std::vector<uint8_t> buf(32 * KiB);
        std::string out = "/out" + std::to_string(ctx.blockId());
        int ofd = fs.gopen(ctx, out, G_RDWR | G_CREAT);
        if (ofd < 0) {
            errors.fetch_add(1);
            return;
        }
        for (int iter = 0; iter < 20; ++iter) {
            unsigned f = unsigned(ctx.rng().nextBelow(kFiles));
            int fd = fs.gopen(ctx, "/in" + std::to_string(f), G_RDONLY);
            if (fd < 0) {
                errors.fetch_add(1);
                continue;
            }
            uint64_t off = ctx.rng().nextBelow(kFileSize - buf.size());
            int64_t n = fs.gread(ctx, fd, off, buf.size(), buf.data());
            if (n != int64_t(buf.size())) {
                errors.fetch_add(1);
            } else {
                for (size_t i = 0; i < buf.size(); i += 509) {
                    if (buf[i] != test::rampByte(off + i))
                        errors.fetch_add(1);
                }
            }
            uint8_t stamp = uint8_t(ctx.blockId() * 31 + iter);
            std::memset(buf.data(), stamp, 1024);
            if (fs.gwrite(ctx, ofd, uint64_t(iter) * 1024, 1024,
                          buf.data()) != 1024) {
                errors.fetch_add(1);
            }
            fs.gclose(ctx, fd);
        }
        if (!ok(fs.gfsync(ctx, ofd)))
            errors.fetch_add(1);
        fs.gclose(ctx, ofd);
    });
    ASSERT_EQ(0u, errors.load());

    for (unsigned b = 0; b < 24; ++b) {
        int hfd = sys->hostFs().open("/out" + std::to_string(b),
                                     hostfs::O_RDONLY_F);
        ASSERT_GE(hfd, 0) << b;
        for (int iter = 0; iter < 20; ++iter) {
            uint8_t byte = 0;
            sys->hostFs().pread(hfd, &byte, 1, uint64_t(iter) * 1024);
            EXPECT_EQ(uint8_t(b * 31 + iter), byte)
                << "block " << b << " iter " << iter;
        }
        sys->hostFs().close(hfd);
    }
}

TEST_F(WritebackBatchTest, DirtyClosesDrainAtSyncAndReleaseEveryFd)
{
    makeSystem(baseParams());
    auto ctx = test::makeBlock(sys->device(0));
    // Each round leaves the file dirty at gclose (close does NOT sync,
    // §3.2), so the parked entry keeps its host fd and the next open
    // reuses its cache.
    for (int round = 0; round < 20; ++round) {
        int fd = sys->fs().gopen(ctx, "/churn", G_RDWR | G_CREAT);
        ASSERT_GE(fd, 0) << round;
        std::vector<uint8_t> buf(kPage, uint8_t(round + 1));
        for (unsigned pg = 0; pg < 6; ++pg) {
            ASSERT_EQ(int64_t(kPage),
                      sys->fs().gwrite(ctx, fd, uint64_t(pg) * kPage,
                                       kPage, buf.data()));
        }
        ASSERT_EQ(Status::Ok, sys->fs().gclose(ctx, fd));
    }

    // Reopen and sync: the last round's stamp lands, and the clean
    // close that follows leaves no host fd (or consistency claim).
    int fd = sys->fs().gopen(ctx, "/churn", G_RDWR);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(Status::Ok, sys->fs().gfsync(ctx, fd));
    ASSERT_EQ(Status::Ok, sys->fs().gclose(ctx, fd));
    EXPECT_EQ(0u, sys->fs().hostFdsHeld());
    EXPECT_EQ(0u, sys->hostFs().openCount());
    int hfd = sys->hostFs().open("/churn", hostfs::O_RDONLY_F);
    ASSERT_GE(hfd, 0);
    for (unsigned pg = 0; pg < 6; ++pg) {
        uint8_t b = 0;
        sys->hostFs().pread(hfd, &b, 1, uint64_t(pg) * kPage + 11);
        EXPECT_EQ(20u, b) << pg;
    }
    sys->hostFs().close(hfd);
}

} // namespace
} // namespace core
} // namespace gpufs
