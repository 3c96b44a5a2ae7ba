/**
 * @file
 * Storage-backend matrix tests: the same functional contract — read
 * correctness, write durability, EOF clamping, transient-fault retry —
 * must hold on EVERY backend, because the backends differ only in
 * their virtual-time charge model, never in bytes. Plus per-backend
 * counter checks (each backend's signature counter moves) and the
 * name/parse round-trip the --backend= flag depends on.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "gpufs/system.hh"
#include "sim/fault.hh"
#include "storage/backend.hh"
#include "tests/testutil.hh"

namespace gpufs {
namespace core {
namespace {

constexpr storage::BackendKind kAllKinds[] = {
    storage::BackendKind::Buffered,
    storage::BackendKind::Direct,
    storage::BackendKind::Gds,
    storage::BackendKind::RemoteFlash,
};

class StorageBackendTest
    : public ::testing::TestWithParam<storage::BackendKind>
{
  protected:
    static constexpr uint64_t kPage = 16 * KiB;
    // Deliberately NOT a multiple of the 4K sector: the tail page's
    // EOF clamp produces an unaligned extent on every run, so the
    // direct path's sector-rounding accounting always has work.
    static constexpr uint64_t kFileSize = 3 * kPage + 10000;

    void
    SetUp() override
    {
        GpuFsParams p;
        p.pageSize = kPage;
        p.cacheBytes = 16 * MiB;
        // Demand paging only: injected read faults must be consumed by
        // the reads the test issues, not by speculation.
        p.readAheadPages = 0;
        p.storageBackend = GetParam();
        sys = std::make_unique<GpufsSystem>(1, p);
    }

    uint64_t
    daemonStat(const char *name)
    {
        return sys->daemon().stats().counter(name).get();
    }

    std::unique_ptr<GpufsSystem> sys;
};

TEST_P(StorageBackendTest, SelectedBackendIsActive)
{
    EXPECT_EQ(GetParam(), sys->daemon().storageBackend().kind());
}

TEST_P(StorageBackendTest, ReadsDeliverCorrectBytes)
{
    test::addRamp(sys->hostFs(), "/ramp", kFileSize);
    auto ctx = test::makeBlock(sys->device(0));
    int fd = sys->fs().gopen(ctx, "/ramp", G_RDONLY);
    ASSERT_GE(fd, 0);

    std::vector<uint8_t> buf(kPage);
    for (uint64_t off = 0; off < kFileSize; off += kPage) {
        uint64_t want = std::min(kPage, kFileSize - off);
        ASSERT_EQ(int64_t(want),
                  sys->fs().gread(ctx, fd, off, kPage, buf.data()))
            << "offset " << off;
        for (uint64_t i = 0; i < want; ++i)
            ASSERT_EQ(test::rampByte(off + i), buf[i])
                << "offset " << off + i;
    }
    sys->fs().gclose(ctx, fd);

    // Every miss went through the backend, and it saw every byte.
    EXPECT_GT(daemonStat("storage_reads"), 0u);
    EXPECT_GE(daemonStat("storage_read_bytes"), kFileSize);
}

TEST_P(StorageBackendTest, WritesLandDurablyAndReadBack)
{
    auto ctx = test::makeBlock(sys->device(0));
    int fd = sys->fs().gopen(ctx, "/out", G_RDWR | G_CREAT);
    ASSERT_GE(fd, 0);

    std::vector<uint8_t> page(kPage);
    for (uint64_t i = 0; i < kPage; ++i)
        page[i] = test::rampByte(i);
    ASSERT_EQ(int64_t(kPage),
              sys->fs().gwrite(ctx, fd, 0, kPage, page.data()));
    ASSERT_EQ(Status::Ok, sys->fs().gmsync(ctx, fd));

    EXPECT_GT(daemonStat("storage_writes"), 0u);
    EXPECT_GE(daemonStat("storage_write_bytes"), kPage);

    // Host-visible content matches, regardless of which timeline the
    // bytes were charged on.
    int hfd = sys->hostFs().open("/out", hostfs::O_RDONLY_F);
    ASSERT_GE(hfd, 0);
    std::vector<uint8_t> img(kPage);
    auto r = sys->hostFs().pread(hfd, img.data(), kPage, 0);
    ASSERT_EQ(Status::Ok, r.status);
    ASSERT_EQ(kPage, r.bytes);
    sys->hostFs().close(hfd);
    for (uint64_t i = 0; i < kPage; ++i)
        ASSERT_EQ(test::rampByte(i), img[i]) << i;

    // And it reads back through the GPU path too.
    std::vector<uint8_t> back(kPage);
    ASSERT_EQ(int64_t(kPage),
              sys->fs().gread(ctx, fd, 0, kPage, back.data()));
    EXPECT_EQ(0, std::memcmp(page.data(), back.data(), kPage));
    sys->fs().gclose(ctx, fd);
}

TEST_P(StorageBackendTest, ReadsClampAtEof)
{
    test::addRamp(sys->hostFs(), "/eof", 100);
    auto ctx = test::makeBlock(sys->device(0));
    int fd = sys->fs().gopen(ctx, "/eof", G_RDONLY);
    ASSERT_GE(fd, 0);
    uint8_t b;
    EXPECT_EQ(0, sys->fs().gread(ctx, fd, 200, 1, &b));
    std::vector<uint8_t> buf(100);
    EXPECT_EQ(50, sys->fs().gread(ctx, fd, 50, 100, buf.data()));
    for (uint64_t i = 0; i < 50; ++i)
        EXPECT_EQ(test::rampByte(50 + i), buf[i]) << i;
    sys->fs().gclose(ctx, fd);
}

TEST_P(StorageBackendTest, TransientEioAbsorbedThenGiveupSurfaces)
{
    test::addRamp(sys->hostFs(), "/flaky", 8 * kPage);
    auto ctx = test::makeBlock(sys->device(0));
    int fd = sys->fs().gopen(ctx, "/flaky", G_RDONLY);
    ASSERT_GE(fd, 0);
    std::vector<uint8_t> buf(kPage);

    // Two injected EIOs: absorbed by the daemon's bounded retry — the
    // application sees a clean read on every backend (the fault sits
    // in the shared host-I/O impl, below the charge models).
    sys->sim().faults.injectIoError(sim::FaultOp::HostRead, 2);
    ASSERT_EQ(int64_t(kPage),
              sys->fs().gread(ctx, fd, 0, kPage, buf.data()));
    for (uint64_t i = 0; i < kPage; ++i)
        ASSERT_EQ(test::rampByte(i), buf[i]) << i;
    EXPECT_GE(daemonStat("io_retries"), 2u);
    EXPECT_EQ(0u, daemonStat("io_retry_giveups"));

    // A fault outliving the retry budget surfaces as a GStatus error
    // (fresh page so the GPU cache can't answer from residency).
    sys->sim().faults.injectIoError(sim::FaultOp::HostRead, 100);
    int64_t rc = sys->fs().gread(ctx, fd, 4 * kPage, kPage, buf.data());
    ASSERT_LT(rc, 0);
    EXPECT_EQ(Status::IoError, gstatus_of(rc));
    EXPECT_GE(daemonStat("io_retry_giveups"), 1u);

    // Clearing the fault heals the path on this backend too.
    sys->sim().faults.reset();
    ASSERT_EQ(int64_t(kPage),
              sys->fs().gread(ctx, fd, 4 * kPage, kPage, buf.data()));
    sys->fs().gclose(ctx, fd);
}

TEST_P(StorageBackendTest, SignatureCountersMove)
{
    test::addRamp(sys->hostFs(), "/sig", kFileSize);
    auto ctx = test::makeBlock(sys->device(0));
    int fd = sys->fs().gopen(ctx, "/sig", G_RDONLY);
    ASSERT_GE(fd, 0);
    std::vector<uint8_t> buf(kPage);
    for (uint64_t off = 0; off < kFileSize; off += kPage)
        ASSERT_GT(sys->fs().gread(ctx, fd, off, kPage, buf.data()), 0);
    sys->fs().gclose(ctx, fd);

    switch (GetParam()) {
      case storage::BackendKind::Buffered:
        // The default path keeps charging the host page cache.
        EXPECT_GT(sys->hostFs().cache().stats().counter("miss_bytes")
                      .get(), 0u);
        break;
      case storage::BackendKind::Direct:
        // The tail extent (EOF clamp at a non-sector size) rounded out.
        EXPECT_GT(daemonStat("direct_unaligned_bytes"), 0u);
        break;
      case storage::BackendKind::Gds:
        EXPECT_GT(daemonStat("gds_dmas"), 0u);
        break;
      case storage::BackendKind::RemoteFlash:
        EXPECT_GT(daemonStat("nvmf_commands"), 0u);
        break;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, StorageBackendTest, ::testing::ValuesIn(kAllKinds),
    [](const ::testing::TestParamInfo<storage::BackendKind> &info) {
        return std::string(storage::backendName(info.param));
    });

TEST(StorageBackendNames, ParseRoundTripsAndRejectsGarbage)
{
    for (storage::BackendKind k : kAllKinds) {
        storage::BackendKind parsed;
        ASSERT_TRUE(storage::parseBackendKind(storage::backendName(k),
                                              &parsed))
            << storage::backendName(k);
        EXPECT_EQ(k, parsed);
    }
    storage::BackendKind parsed;
    EXPECT_TRUE(storage::parseBackendKind("remoteflash", &parsed));
    EXPECT_EQ(storage::BackendKind::RemoteFlash, parsed);
    EXPECT_FALSE(storage::parseBackendKind("tape", &parsed));
    EXPECT_FALSE(storage::parseBackendKind("", &parsed));
}

} // namespace
} // namespace core
} // namespace gpufs
