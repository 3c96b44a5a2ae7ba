/** @file Concurrency stress and failure-injection tests. */

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>

#include "gpufs/system.hh"
#include "tests/testutil.hh"

namespace gpufs {
namespace core {
namespace {

/** A provider that fails reads after a fuse burns (fault injection). */
class FailingContent : public hostfs::ContentProvider
{
  public:
    explicit FailingContent(uint64_t fail_after_reads)
        : fuse(fail_after_reads) {}

    void
    readAt(uint64_t offset, uint64_t len, uint8_t *dst) override
    {
        if (fuse.fetch_sub(1, std::memory_order_relaxed) <= 0) {
            // Simulated media error: poison instead of data. HostFs has
            // no error channel from providers, so the fault-injection
            // test drives the error through a zero-length file instead;
            // this poison path catches silent misuse.
            std::memset(dst, 0xDE, len);
            return;
        }
        for (uint64_t i = 0; i < len; ++i)
            dst[i] = uint8_t((offset + i) * 131 + 7);
    }

    bool writeAt(uint64_t, uint64_t, const uint8_t *) override
    {
        return false;
    }
    bool writable() const override { return false; }

  private:
    std::atomic<int64_t> fuse;
};

class StressTest : public ::testing::Test
{
  protected:
    StressTest()
    {
        GpuFsParams p;
        p.pageSize = 16 * KiB;
        p.cacheBytes = 1 * MiB;     // tiny: constant paging
        p.maxOpenFiles = 32;
        sys = std::make_unique<GpufsSystem>(1, p);
    }

    std::unique_ptr<GpufsSystem> sys;
};

TEST_F(StressTest, MixedOpsUnderPagingKeepDataIntact)
{
    // 16 files x 256 KiB vs a 1 MiB cache; 56 blocks read, write and
    // re-open concurrently. Every read is verified against the
    // deterministic content; every written byte is verified after.
    // (56 concurrently-open per-block output files need a larger file
    // table than the fixture's churn-test default.)
    GpuFsParams p;
    p.pageSize = 16 * KiB;
    // 128 frames: heavy paging against the 4 MiB working set, but
    // enough headroom that 56 transient pins can't exhaust the arena.
    p.cacheBytes = 2 * MiB;
    p.maxOpenFiles = 128;
    sys = std::make_unique<GpufsSystem>(1, p);
    constexpr unsigned kFiles = 16;
    constexpr uint64_t kFileSize = 256 * KiB;
    for (unsigned f = 0; f < kFiles; ++f)
        test::addRamp(sys->hostFs(), "/in" + std::to_string(f), kFileSize);

    std::atomic<uint64_t> errors{0};
    gpu::launch(sys->device(0), 56, 256, [&](gpu::BlockCtx &ctx) {
        GpuFs &fs = sys->fs();
        std::vector<uint8_t> buf(24 * KiB);
        std::string out_path = "/out" + std::to_string(ctx.blockId());
        int ofd = fs.gopen(ctx, out_path, G_RDWR | G_CREAT);
        if (ofd < 0) {
            errors.fetch_add(1);
            return;
        }
        for (int iter = 0; iter < 30; ++iter) {
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
                for (size_t i = 0; i < buf.size(); i += 997) {
                    if (buf[i] != test::rampByte(off + i))
                        errors.fetch_add(1);
                }
            }
            // Write a stamped record into this block's own file.
            uint8_t stamp = uint8_t(ctx.blockId() ^ iter);
            std::memset(buf.data(), stamp, 512);
            if (fs.gwrite(ctx, ofd, uint64_t(iter) * 512, 512,
                          buf.data()) != 512) {
                errors.fetch_add(1);
            }
            fs.gclose(ctx, fd);
        }
        if (!ok(fs.gfsync(ctx, ofd)))
            errors.fetch_add(1);
        fs.gclose(ctx, ofd);
    });
    ASSERT_EQ(0u, errors.load());
    EXPECT_GT(sys->fs().stats().counter("pages_reclaimed").get(), 0u);

    // Verify every block's output file on the host.
    for (unsigned b = 0; b < 56; ++b) {
        int fd = sys->hostFs().open("/out" + std::to_string(b),
                                    hostfs::O_RDONLY_F);
        ASSERT_GE(fd, 0) << b;
        uint8_t byte = 0;
        for (int iter = 0; iter < 30; ++iter) {
            sys->hostFs().pread(fd, &byte, 1, uint64_t(iter) * 512);
            EXPECT_EQ(uint8_t(b ^ iter), byte) << "block " << b;
        }
        sys->hostFs().close(fd);
    }
    EXPECT_EQ(0u, sys->hostFs().openCount());
}

TEST_F(StressTest, OpenTableChurnRecyclesClosedEntries)
{
    // More distinct files than table slots: closed entries must be
    // recycled (oldest first) without losing open files.
    constexpr unsigned kFiles = 100;     // > maxOpenFiles (32)
    for (unsigned f = 0; f < kFiles; ++f)
        test::addRamp(sys->hostFs(), "/c" + std::to_string(f), 4 * KiB);

    auto ctx = test::makeBlock(sys->device(0));
    for (int round = 0; round < 3; ++round) {
        for (unsigned f = 0; f < kFiles; ++f) {
            int fd = sys->fs().gopen(ctx, "/c" + std::to_string(f),
                                     G_RDONLY);
            ASSERT_GE(fd, 0) << f;
            uint8_t b;
            ASSERT_EQ(1, sys->fs().gread(ctx, fd, f % 4096, 1, &b));
            EXPECT_EQ(test::rampByte(f % 4096), b);
            ASSERT_EQ(Status::Ok, sys->fs().gclose(ctx, fd));
        }
    }
    EXPECT_EQ(0u, sys->hostFs().openCount());
}

TEST_F(StressTest, TooManyConcurrentOpenFilesReported)
{
    for (unsigned f = 0; f < 40; ++f)
        test::addRamp(sys->hostFs(), "/t" + std::to_string(f), 64);
    auto ctx = test::makeBlock(sys->device(0));
    std::vector<int> fds;
    int failed_at = -1;
    for (unsigned f = 0; f < 40; ++f) {
        int fd = sys->fs().gopen(ctx, "/t" + std::to_string(f), G_RDONLY);
        if (fd < 0) {
            EXPECT_EQ(-int(Status::TooManyFiles), fd);
            failed_at = int(f);
            break;
        }
        fds.push_back(fd);
    }
    // 40 > 32 slots: must hit the limit, but not before filling it.
    EXPECT_GE(failed_at, 32);
    for (int fd : fds)
        sys->fs().gclose(ctx, fd);
}

TEST_F(StressTest, ZeroByteFileBehaves)
{
    test::addBytes(sys->hostFs(), "/empty", {});
    auto ctx = test::makeBlock(sys->device(0));
    int fd = sys->fs().gopen(ctx, "/empty", G_RDONLY);
    ASSERT_GE(fd, 0);
    uint8_t b;
    EXPECT_EQ(0, sys->fs().gread(ctx, fd, 0, 1, &b));
    GStat st;
    sys->fs().gfstat(ctx, fd, &st);
    EXPECT_EQ(0u, st.size);
    uint64_t mapped = 1;
    EXPECT_EQ(nullptr, sys->fs().gmmap(ctx, fd, 0, 16, &mapped));
    sys->fs().gclose(ctx, fd);
}

TEST_F(StressTest, RepeatedOpenCloseOfSameFileIsIdempotent)
{
    test::addRamp(sys->hostFs(), "/rep", 8 * KiB);
    auto ctx = test::makeBlock(sys->device(0));
    uint64_t rpcs_before = sys->fs().stats().counter("open_rpcs").get();
    for (int i = 0; i < 50; ++i) {
        int fd = sys->fs().gopen(ctx, "/rep", G_RDONLY);
        ASSERT_GE(fd, 0);
        sys->fs().gclose(ctx, fd);
    }
    // Cache retained across closes: only the first open needs the CPU
    // (plus one per reopen validation; far fewer than 50 full opens
    // would imply if caches were dropped).
    uint64_t rpcs = sys->fs().stats().counter("open_rpcs").get()
        - rpcs_before;
    EXPECT_LE(rpcs, 50u);
    EXPECT_EQ(0u, sys->fs().stats().counter("cache_invalidations").get());
}

TEST_F(StressTest, PoisonedProviderDataIsContained)
{
    // Fault injection: after the fuse burns, the provider returns
    // poison. GPUfs must still deliver *something* without corrupting
    // unrelated files' cached pages.
    sys->hostFs().addFile("/flaky", std::make_unique<FailingContent>(4),
                          256 * KiB);
    test::addRamp(sys->hostFs(), "/good", 64 * KiB);
    auto ctx = test::makeBlock(sys->device(0));

    int good = sys->fs().gopen(ctx, "/good", G_RDONLY);
    uint8_t gb;
    sys->fs().gread(ctx, good, 100, 1, &gb);
    EXPECT_EQ(test::rampByte(100), gb);

    int flaky = sys->fs().gopen(ctx, "/flaky", G_RDONLY);
    std::vector<uint8_t> buf(256 * KiB);
    sys->fs().gread(ctx, flaky, 0, buf.size(), buf.data());

    // The good file's cached page is untouched by the poison.
    sys->fs().gread(ctx, good, 100, 1, &gb);
    EXPECT_EQ(test::rampByte(100), gb);
    sys->fs().gclose(ctx, flaky);
    sys->fs().gclose(ctx, good);
}

TEST_F(StressTest, AsyncMixedOpsUnderPagingKeepDataIntact)
{
    // The async twin of MixedOpsUnderPagingKeepDataIntact: blocks
    // keep several read/write tokens in flight, wait them out of
    // order, interleave sync wrappers (which harvest pending claims),
    // and close files with tokens outstanding. TSan runs this in CI.
    GpuFsParams p;
    p.pageSize = 16 * KiB;
    p.cacheBytes = 2 * MiB;         // heavy paging
    p.maxOpenFiles = 128;
    sys = std::make_unique<GpufsSystem>(1, p);
    constexpr unsigned kFiles = 8;
    constexpr uint64_t kFileSize = 256 * KiB;
    for (unsigned f = 0; f < kFiles; ++f)
        test::addRamp(sys->hostFs(), "/ain" + std::to_string(f),
                      kFileSize);

    std::atomic<uint64_t> errors{0};
    gpu::launch(sys->device(0), 56, 256, [&](gpu::BlockCtx &ctx) {
        GpuFs &fs = sys->fs();
        std::string out_path = "/aout" + std::to_string(ctx.blockId());
        int ofd = fs.gopen(ctx, out_path, G_RDWR | G_CREAT);
        if (ofd < 0) {
            errors.fetch_add(1);
            return;
        }
        constexpr uint64_t kChunk = 24 * KiB;
        std::vector<uint8_t> rbuf[2] = {std::vector<uint8_t>(kChunk),
                                        std::vector<uint8_t>(kChunk)};
        std::vector<uint8_t> wbuf(512);
        for (int iter = 0; iter < 20; ++iter) {
            unsigned f = unsigned(ctx.rng().nextBelow(kFiles));
            int fd = fs.gopen(ctx, "/ain" + std::to_string(f),
                              G_RDONLY);
            if (fd < 0) {
                errors.fetch_add(1);
                continue;
            }
            // Two overlapping-in-time reads, waited in reverse order.
            uint64_t o0 = ctx.rng().nextBelow(kFileSize - kChunk);
            uint64_t o1 = ctx.rng().nextBelow(kFileSize - kChunk);
            IoToken t0 = fs.gread_async(ctx, fd, o0, kChunk,
                                        rbuf[0].data());
            IoToken t1 = fs.gread_async(ctx, fd, o1, kChunk,
                                        rbuf[1].data());
            // A write token into this block's own file rides along.
            uint8_t stamp = uint8_t(ctx.blockId() ^ iter);
            std::memset(wbuf.data(), stamp, wbuf.size());
            IoToken tw = fs.gwrite_async(ctx, ofd,
                                         uint64_t(iter) * wbuf.size(),
                                         wbuf.size(), wbuf.data());
            if (fs.gwait(ctx, t1) != int64_t(kChunk)) {
                errors.fetch_add(1);
            } else {
                for (size_t i = 0; i < kChunk; i += 997) {
                    if (rbuf[1][i] != test::rampByte(o1 + i))
                        errors.fetch_add(1);
                }
            }
            if (fs.gwait(ctx, t0) != int64_t(kChunk)) {
                errors.fetch_add(1);
            } else {
                for (size_t i = 0; i < kChunk; i += 997) {
                    if (rbuf[0][i] != test::rampByte(o0 + i))
                        errors.fetch_add(1);
                }
            }
            if (fs.gwait(ctx, tw) != int64_t(wbuf.size()))
                errors.fetch_add(1);
            // Every third iteration closes with a token outstanding
            // (wait-after-close) and syncs through the async path.
            if (iter % 3 == 0) {
                IoToken late = fs.gread_async(ctx, fd, 0, 1 * KiB,
                                              rbuf[0].data());
                fs.gclose(ctx, fd);
                if (fs.gwait(ctx, late) != int64_t(1 * KiB))
                    errors.fetch_add(1);
                if (!ok(gstatus_of(
                        fs.gwait(ctx, fs.gfsync_async(ctx, ofd)))))
                    errors.fetch_add(1);
            } else {
                fs.gclose(ctx, fd);
            }
        }
        if (!ok(fs.gwait_all(ctx)))
            errors.fetch_add(1);
        if (!ok(fs.gfsync(ctx, ofd)))
            errors.fetch_add(1);
        fs.gclose(ctx, ofd);
    });
    ASSERT_EQ(0u, errors.load());

    // Verify every block's output file on the host.
    for (unsigned b = 0; b < 56; ++b) {
        int fd = sys->hostFs().open("/aout" + std::to_string(b),
                                    hostfs::O_RDONLY_F);
        ASSERT_GE(fd, 0) << b;
        uint8_t byte = 0;
        for (int iter = 0; iter < 20; ++iter) {
            sys->hostFs().pread(fd, &byte, 1, uint64_t(iter) * 512);
            EXPECT_EQ(uint8_t(b ^ iter), byte) << "block " << b;
        }
        sys->hostFs().close(fd);
    }
}

TEST_F(StressTest, AdaptiveReadAheadThreadedMixedPhases)
{
    // Adaptive read-ahead (the default policy) under real threading:
    // 32 blocks alternate sequential sweeps over a private file
    // (clean per-file streams: trackers ramp, prefetch flows) with
    // random reads of a shared file (interleaved misses: the shared
    // tracker collapses), under a cache small enough that speculative
    // frames die cold and the throttle/ghost machinery runs. The
    // tracker and speculative-tag state is hammered from app blocks,
    // split-phase collection, and eviction concurrently — the TSan CI
    // job runs this plus readahead_test.
    GpuFsParams p;
    p.pageSize = 16 * KiB;
    p.cacheBytes = 3 * MiB;         // 192 frames vs ~9 MiB working set
    p.maxOpenFiles = 64;
    sys = std::make_unique<GpufsSystem>(1, p);
    constexpr unsigned kBlocks = 32;
    constexpr uint64_t kFileSize = 256 * KiB;   // 16 pages each
    for (unsigned b = 0; b < kBlocks; ++b) {
        test::addRamp(sys->hostFs(), "/seq" + std::to_string(b),
                      kFileSize);
    }
    test::addRamp(sys->hostFs(), "/shared", 1 * MiB);

    std::atomic<uint64_t> errors{0};
    gpu::launch(sys->device(0), kBlocks, 256, [&](gpu::BlockCtx &ctx) {
        GpuFs &fs = sys->fs();
        std::vector<uint8_t> buf(16 * KiB);
        std::string mine = "/seq" + std::to_string(ctx.blockId());
        for (int round = 0; round < 6; ++round) {
            // Sequential phase: full sweep of the private file.
            int fd = fs.gopen(ctx, mine, G_RDONLY);
            if (fd < 0) {
                errors.fetch_add(1);
                continue;
            }
            for (uint64_t off = 0; off < kFileSize; off += buf.size()) {
                if (fs.gread(ctx, fd, off, buf.size(), buf.data()) !=
                    int64_t(buf.size())) {
                    errors.fetch_add(1);
                    continue;
                }
                for (size_t i = 0; i < buf.size(); i += 997) {
                    if (buf[i] != test::rampByte(off + i))
                        errors.fetch_add(1);
                }
            }
            fs.gclose(ctx, fd);
            // Random phase: shared file, interleaved across blocks.
            int sfd = fs.gopen(ctx, "/shared", G_RDONLY);
            if (sfd < 0) {
                errors.fetch_add(1);
                continue;
            }
            for (int i = 0; i < 8; ++i) {
                uint64_t off =
                    ctx.rng().nextBelow(1 * MiB - buf.size());
                int64_t n = fs.gread(ctx, sfd, off, buf.size(),
                                     buf.data());
                if (n != int64_t(buf.size())) {
                    errors.fetch_add(1);
                } else {
                    for (size_t i2 = 0; i2 < buf.size(); i2 += 1021) {
                        if (buf[i2] != test::rampByte(off + i2))
                            errors.fetch_add(1);
                    }
                }
            }
            fs.gclose(ctx, sfd);
        }
    });
    ASSERT_EQ(0u, errors.load());
    // Feedback accounting survived the races: nothing over-counted.
    uint64_t issued = sys->fs().stats().counter("ra_issued").get();
    uint64_t hit = sys->fs().stats().counter("ra_hit").get();
    uint64_t wasted = sys->fs().stats().counter("ra_wasted").get();
    EXPECT_LE(wasted, issued);
    EXPECT_LE(hit, issued);
    EXPECT_GT(issued, 0u);      // the private sweeps did prefetch
    EXPECT_GT(sys->fs().stats().counter("pages_reclaimed").get(), 0u);
}

TEST_F(StressTest, SharedFileRegionScansRampPerStreamConcurrently)
{
    // The cross-block scaling workload under real threading: a full
    // wave of blocks scans disjoint regions of ONE file with adaptive
    // read-ahead. Every miss races the per-(file, stream) table's slot
    // resolution, every completion races the speculative-tag feedback
    // routing, and the tight cache keeps eviction (waste attribution)
    // in the mix. TSan runs this in CI; the assertions check that the
    // table actually kept concurrent streams apart and that the
    // aggregate accounting never leaked a page.
    GpuFsParams p;
    p.pageSize = 16 * KiB;
    p.cacheBytes = 3 * MiB;         // 192 frames vs 12 MiB of file
    sys = std::make_unique<GpufsSystem>(1, p);
    constexpr unsigned kBlocks = 48;        // > kStreamSlots: recycles
    constexpr uint64_t kRegionPages = 16;
    constexpr uint64_t kRegion = kRegionPages * 16 * KiB;
    test::addRamp(sys->hostFs(), "/wide", kBlocks * kRegion);

    std::atomic<uint64_t> errors{0};
    gpu::launch(sys->device(0), kBlocks, 256, [&](gpu::BlockCtx &ctx) {
        GpuFs &fs = sys->fs();
        std::vector<uint8_t> buf(16 * KiB);
        int fd = fs.gopen(ctx, "/wide", G_RDONLY);
        if (fd < 0) {
            errors.fetch_add(1);
            return;
        }
        for (int round = 0; round < 3; ++round) {
            const uint64_t base = ctx.blockId() * kRegion;
            for (uint64_t off = base; off < base + kRegion;
                 off += buf.size()) {
                if (fs.gread(ctx, fd, off, buf.size(), buf.data()) !=
                    int64_t(buf.size())) {
                    errors.fetch_add(1);
                    continue;
                }
                for (size_t i = 0; i < buf.size(); i += 997) {
                    if (buf[i] != test::rampByte(off + i))
                        errors.fetch_add(1);
                }
            }
        }
        fs.gclose(ctx, fd);
    });
    ASSERT_EQ(0u, errors.load());
    uint64_t issued = sys->fs().stats().counter("ra_issued").get();
    uint64_t hit = sys->fs().stats().counter("ra_hit").get();
    uint64_t wasted = sys->fs().stats().counter("ra_wasted").get();
    EXPECT_LE(wasted, issued);
    EXPECT_LE(hit, issued);
    EXPECT_GT(issued, 0u);      // the region scans did prefetch
    // The table resolved many concurrent streams, not one smeared one.
    EXPECT_GT(sys->fs().stats().counter("ra_streams_active").get(), 1u);
}

TEST_F(StressTest, ReadAheadPrefetchesSequentialPages)
{
    GpuFsParams p;
    p.pageSize = 16 * KiB;
    p.cacheBytes = 8 * MiB;
    p.readAheadPages = 4;
    GpufsSystem ra_sys(1, p);
    test::addRamp(ra_sys.hostFs(), "/seq", 1 * MiB);

    auto ctx = test::makeBlock(ra_sys.device(0));
    int fd = ra_sys.fs().gopen(ctx, "/seq", G_RDONLY);
    std::vector<uint8_t> buf(16 * KiB);
    // Read the first page only: read-ahead should have pulled more.
    ra_sys.fs().gread(ctx, fd, 0, buf.size(), buf.data());
    uint64_t resident_after_one =
        ra_sys.fs().stats().counter("cache_misses").get();
    EXPECT_GE(resident_after_one, 5u);   // 1 demand + 4 prefetched

    // Sequential scan: correctness unchanged, and the whole file ends
    // up cached.
    for (uint64_t off = 0; off < 1 * MiB; off += buf.size()) {
        ASSERT_EQ(int64_t(buf.size()),
                  ra_sys.fs().gread(ctx, fd, off, buf.size(), buf.data()));
        for (size_t i = 0; i < buf.size(); i += 1021)
            ASSERT_EQ(test::rampByte(off + i), buf[i]);
    }
    ra_sys.fs().gclose(ctx, fd);
}

TEST_F(StressTest, ReadAheadReducesVirtualTimeOfSequentialScan)
{
    // The extension's payoff: per-access map overhead amortizes.
    auto run = [&](unsigned ra_pages) {
        GpuFsParams p;
        p.pageSize = 64 * KiB;
        p.cacheBytes = 32 * MiB;
        // The ra_pages=0 baseline must stay read-ahead-free (adaptive,
        // the default, would prefetch this sequential scan itself).
        p.readAheadPages = ra_pages;
        GpufsSystem s(1, p);
        test::addRamp(s.hostFs(), "/seq", 16 * MiB);
        // Warm the host page cache: the read-ahead win is the per-map
        // overhead, which a cold (disk-bound) run would drown out.
        hostfs::FileInfo info;
        s.hostFs().stat("/seq", &info);
        s.hostFs().cache().prefault(info.ino, 0, info.size);
        Time elapsed = 0;
        gpu::KernelStats ks = gpu::launch(
            s.device(0), 4, 256, [&](gpu::BlockCtx &ctx) {
                int fd = s.fs().gopen(ctx, "/seq", G_RDONLY);
                std::vector<uint8_t> buf(64 * KiB);
                uint64_t span = 16 * MiB / ctx.numBlocks();
                uint64_t base = ctx.blockId() * span;
                for (uint64_t off = base; off < base + span;
                     off += buf.size()) {
                    s.fs().gread(ctx, fd, off, buf.size(), buf.data());
                }
                s.fs().gclose(ctx, fd);
            });
        elapsed = ks.elapsed();
        return elapsed;
    };
    Time without = run(0);
    Time with = run(8);
    EXPECT_LT(with, without);
}

} // namespace
} // namespace core
} // namespace gpufs
