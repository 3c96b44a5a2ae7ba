/**
 * @file
 * Host-RAM victim cache: demotion on eviction, version-gated probes on
 * the miss path, dirty-page ordering (demote only after write-back),
 * read-ahead conservation when wasted pages demote, capacity eviction,
 * the gds frame-alignment counter, and a threaded demote/rehit race
 * (the TSan case).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <vector>

#include "gpu/launch.hh"
#include "gpufs/system.hh"
#include "gpufs/victim.hh"
#include "tests/testutil.hh"

namespace gpufs {
namespace core {
namespace {

constexpr uint64_t kPage = 16 * KiB;

std::unique_ptr<GpufsSystem>
victimSystem(uint64_t cache_pages, uint64_t victim_pages,
             unsigned num_gpus = 1,
             ShardPolicy shard = ShardPolicy::Private)
{
    GpuFsParams p;
    p.pageSize = kPage;
    p.cacheBytes = cache_pages * kPage;
    p.readAheadPages = 0;
    p.readAheadPolicy = ReadAheadPolicy::Static;
    p.victimCachePages = victim_pages;
    p.shardPolicy = shard;
    return std::make_unique<GpufsSystem>(num_gpus, p);
}

uint64_t
daemonCounter(GpufsSystem &sys, const char *name)
{
    return sys.daemon().stats().counter(name).get();
}

// ---------------------------------------------------------------------
// Demote, then re-miss: the bytes come back from the tier, identical.
// ---------------------------------------------------------------------

TEST(VictimTest, DemoteThenRehitServesIdenticalBytes)
{
    constexpr uint64_t kPages = 16;
    auto sys = victimSystem(/*cache_pages=*/8, /*victim_pages=*/32);
    test::addRamp(sys->hostFs(), "/v", kPages * kPage);
    auto ctx = test::makeBlock(sys->device(0));
    int fd = sys->fs().gopen(ctx, "/v", G_RDONLY);
    ASSERT_GE(fd, 0);

    // Pass 1 populates the arena and overflows it: evicted clean pages
    // demote into the tier instead of vanishing.
    std::vector<uint8_t> buf(kPage);
    for (uint64_t pg = 0; pg < kPages; ++pg) {
        ASSERT_EQ(int64_t(kPage),
                  sys->fs().gread(ctx, fd, pg * kPage, kPage,
                                  buf.data()));
    }
    sys->fs().bufferCache().reclaimFrames(ctx, 1024);
    EXPECT_GT(daemonCounter(*sys, "vc_inserts"), 0u);

    // Pass 2 re-misses everything; the daemon serves from the tier and
    // the host FS is never reopened for reads it can avoid.
    uint64_t host_reads = daemonCounter(*sys, "host_read_calls");
    for (uint64_t pg = 0; pg < kPages; ++pg) {
        ASSERT_EQ(int64_t(kPage),
                  sys->fs().gread(ctx, fd, pg * kPage, kPage,
                                  buf.data()));
        for (size_t i = 0; i < buf.size(); i += 509)
            ASSERT_EQ(test::rampByte(pg * kPage + i), buf[i]) << pg;
    }
    EXPECT_GT(daemonCounter(*sys, "vc_hits"), 0u);
    // Tier hits replaced host reads: pass 2 added none for tier-served
    // pages. (Some pages may still be arena-resident; the bound is
    // that hits + leftover misses cover the second pass.)
    EXPECT_LE(daemonCounter(*sys, "host_read_calls") - host_reads,
              kPages - daemonCounter(*sys, "vc_hits") +
                  daemonCounter(*sys, "vc_misses"));
    sys->fs().gclose(ctx, fd);
}

// ---------------------------------------------------------------------
// Version gating: a host-side mutation after demotion makes the entry
// stale — it is dropped, never served.
// ---------------------------------------------------------------------

TEST(VictimTest, WriteThroughMirrorStalesDemotedPages)
{
    // 2-GPU sharded file: the non-owner's gfsync rides PeerWritePages
    // (host write-through + owner mirror), which bumps the host file
    // version. Demoted pages carrying the old version must miss stale.
    constexpr uint64_t kPages = 16;
    auto sys = victimSystem(/*cache_pages=*/8, /*victim_pages=*/64,
                            /*num_gpus=*/2, ShardPolicy::FileAffinity);
    test::addRamp(sys->hostFs(), "/w", kPages * kPage);
    hostfs::FileInfo info;
    ASSERT_EQ(Status::Ok, sys->hostFs().stat("/w", &info));
    unsigned o = sys->shardMap().ownerOf(info.ino, 0);
    unsigned w = 1 - o;
    auto ctx_o = test::makeBlock(sys->device(o));
    auto ctx_w = test::makeBlock(sys->device(w));

    // Owner reads the whole file and demotes it (version v0 tags).
    int ofd = sys->fs(o).gopen(ctx_o, "/w", G_RDONLY);
    ASSERT_GE(ofd, 0);
    std::vector<uint8_t> buf(kPage);
    for (uint64_t pg = 0; pg < kPages; ++pg) {
        ASSERT_EQ(int64_t(kPage),
                  sys->fs(o).gread(ctx_o, ofd, pg * kPage, kPage,
                                   buf.data()));
    }
    sys->fs(o).bufferCache().reclaimFrames(ctx_o, 1024);
    ASSERT_GT(daemonCounter(*sys, "vc_inserts"), 0u);
    ASSERT_EQ(Status::Ok, sys->fs(o).gclose(ctx_o, ofd));

    // Non-owner writes page 9 and fsyncs: write-through bumps the host
    // version. Pages OUTSIDE the written range were not explicitly
    // invalidated — the version gate alone must reject them.
    int wfd = sys->fs(w).gopen(ctx_w, "/w", G_RDWR);
    ASSERT_GE(wfd, 0);
    std::vector<uint8_t> patch(200, 0xAB);
    ASSERT_EQ(int64_t(patch.size()),
              sys->fs(w).gwrite(ctx_w, wfd, 9 * kPage + 64,
                                patch.size(), patch.data()));
    ASSERT_EQ(Status::Ok, sys->fs(w).gfsync(ctx_w, wfd));
    ASSERT_EQ(Status::Ok, sys->fs(w).gclose(ctx_w, wfd));

    // Owner re-reads everything cold: every probe is version-stale,
    // every byte comes from the host — including the new 0xAB run.
    int refd = sys->fs(o).gopen(ctx_o, "/w", G_RDONLY);
    ASSERT_GE(refd, 0);
    for (uint64_t pg = 0; pg < kPages; ++pg) {
        ASSERT_EQ(int64_t(kPage),
                  sys->fs(o).gread(ctx_o, refd, pg * kPage, kPage,
                                   buf.data()));
        for (size_t i = 0; i < buf.size(); i += 101) {
            uint64_t off = pg * kPage + i;
            uint8_t want = (off >= 9 * kPage + 64 &&
                            off < 9 * kPage + 64 + patch.size())
                ? 0xAB
                : test::rampByte(off);
            ASSERT_EQ(want, buf[i]) << off;
        }
    }
    EXPECT_GT(daemonCounter(*sys, "vc_version_stale"), 0u);
    sys->fs(o).gclose(ctx_o, refd);
}

// ---------------------------------------------------------------------
// Dirty pages demote only AFTER write-back: the tier never holds bytes
// the host hasn't seen, and a rehit returns the post-write content.
// ---------------------------------------------------------------------

TEST(VictimTest, DirtyPageDemotesAfterWritebackAndRehitsNewBytes)
{
    constexpr uint64_t kPages = 12;
    auto sys = victimSystem(/*cache_pages=*/8, /*victim_pages=*/32);
    test::addRamp(sys->hostFs(), "/d", kPages * kPage);
    auto ctx = test::makeBlock(sys->device(0));
    int fd = sys->fs().gopen(ctx, "/d", G_RDWR);
    ASSERT_GE(fd, 0);

    // Dirty a few pages with PARTIAL writes (the read-modify-write
    // fetch initializes the frame, so the post-write frame is fully
    // valid), then force eviction WITHOUT an explicit gfsync: reclaim
    // must write back first, then demote the now-clean bytes with the
    // post-write-back version tag. (Write-allocate pages that were
    // never fetched deliberately do NOT demote: their validBytes is
    // zero — the same conservative rule the peer-serve path applies.)
    constexpr uint64_t kPatchLen = 200, kPatchOff = 64;
    std::vector<uint8_t> patch(kPatchLen, 0x5A);
    for (uint64_t pg = 0; pg < 4; ++pg) {
        ASSERT_EQ(int64_t(kPatchLen),
                  sys->fs().gwrite(ctx, fd, pg * kPage + kPatchOff,
                                   kPatchLen, patch.data()));
    }
    sys->fs().bufferCache().reclaimFrames(ctx, 1024);
    EXPECT_GT(daemonCounter(*sys, "vc_inserts"), 0u);

    // The host is already durable-coherent (write-back happened), so
    // the demoted entries carry the CURRENT version: re-reads may
    // legally serve from the tier — and must return the patched bytes.
    std::vector<uint8_t> buf(kPage);
    for (uint64_t pg = 0; pg < 4; ++pg) {
        ASSERT_EQ(int64_t(kPage),
                  sys->fs().gread(ctx, fd, pg * kPage, kPage,
                                  buf.data()));
        for (size_t i = 0; i < buf.size(); i += 97) {
            uint8_t want = (i >= kPatchOff && i < kPatchOff + kPatchLen)
                ? 0x5A
                : test::rampByte(pg * kPage + i);
            ASSERT_EQ(want, buf[i]) << pg * kPage + i;
        }
    }
    // Never-written pages still read as ramp.
    ASSERT_EQ(int64_t(kPage),
              sys->fs().gread(ctx, fd, 5 * kPage, kPage, buf.data()));
    for (size_t i = 0; i < buf.size(); i += 97)
        ASSERT_EQ(test::rampByte(5 * kPage + i), buf[i]);
    sys->fs().gclose(ctx, fd);
}

// ---------------------------------------------------------------------
// Read-ahead conservation with demotion: wasted speculative pages are
// retired AND demoted; the ra_ ledger still balances exactly.
// ---------------------------------------------------------------------

TEST(VictimTest, WastedReadAheadPagesDemoteAndLedgerBalances)
{
    constexpr uint64_t kPages = 64;
    GpuFsParams p;
    p.pageSize = kPage;
    p.cacheBytes = 32 * kPage;
    p.victimCachePages = 128;
    // Defaults: adaptive read-ahead (speculative pages exist).
    GpufsSystem sys(1, p);
    test::addRamp(sys.hostFs(), "/ra", kPages * kPage);
    auto ctx = test::makeBlock(sys.device(0));
    int fd = sys.fs().gopen(ctx, "/ra", G_RDONLY);
    ASSERT_GE(fd, 0);
    std::vector<uint8_t> buf(kPage);
    // Ramp deep, abandon mid-window: a speculative tail is left
    // unpromoted.
    for (uint64_t pg = 0; pg <= 20; ++pg) {
        ASSERT_EQ(int64_t(kPage),
                  sys.fs().gread(ctx, fd, pg * kPage, kPage,
                                 buf.data()));
    }
    uint64_t issued = sys.fs().stats().counter("ra_issued").get();
    uint64_t hit = sys.fs().stats().counter("ra_hit").get();
    ASSERT_GT(issued, hit);

    sys.fs().bufferCache().reclaimFrames(ctx, 4096);
    // Conservation is untouched by the demotion side effect...
    EXPECT_EQ(issued, sys.fs().stats().counter("ra_hit").get() +
                          sys.fs().stats().counter("ra_wasted").get());
    EXPECT_EQ(issued - hit,
              sys.fs().stats().counter("ra_wasted").get());
    // ...and the wasted pages actually landed in the tier: a re-read
    // of the abandoned tail hits.
    uint64_t hits0 = sys.daemon().stats().counter("vc_hits").get();
    ASSERT_EQ(int64_t(kPage),
              sys.fs().gread(ctx, fd, 21 * kPage, kPage, buf.data()));
    for (size_t i = 0; i < buf.size(); i += 509)
        ASSERT_EQ(test::rampByte(21 * kPage + i), buf[i]);
    EXPECT_GT(sys.daemon().stats().counter("vc_hits").get(), hits0);
    sys.fs().gclose(ctx, fd);
}

// ---------------------------------------------------------------------
// Capacity: the tier LRU-evicts and never exceeds its page budget.
// ---------------------------------------------------------------------

TEST(VictimTest, TierCapacityEvictsLruAndBoundsResidency)
{
    constexpr uint64_t kPages = 32;
    constexpr uint64_t kTier = 4;
    auto sys = victimSystem(/*cache_pages=*/8, kTier);
    test::addRamp(sys->hostFs(), "/cap", kPages * kPage);
    auto ctx = test::makeBlock(sys->device(0));
    int fd = sys->fs().gopen(ctx, "/cap", G_RDONLY);
    ASSERT_GE(fd, 0);
    std::vector<uint8_t> buf(kPage);
    for (uint64_t pg = 0; pg < kPages; ++pg) {
        ASSERT_EQ(int64_t(kPage),
                  sys->fs().gread(ctx, fd, pg * kPage, kPage,
                                  buf.data()));
    }
    sys->fs().bufferCache().reclaimFrames(ctx, 1024);
    VictimCache *vc = sys->victimCache();
    ASSERT_NE(nullptr, vc);
    EXPECT_LE(vc->residentPages(), kTier);
    EXPECT_EQ(kTier, vc->capacityPages());
    EXPECT_GT(daemonCounter(*sys, "vc_evictions"), 0u);
    EXPECT_EQ(daemonCounter(*sys, "vc_inserts") -
                  daemonCounter(*sys, "vc_evictions"),
              vc->residentPages());
    sys->fs().gclose(ctx, fd);
}

// ---------------------------------------------------------------------
// Direct VictimCache unit coverage: probe gating and invalidation.
// ---------------------------------------------------------------------

TEST(VictimTest, ProbeGatesOnVersionAndValidLength)
{
    StatSet stats("vc_unit");
    VictimCache vc(/*capacity_pages=*/2, /*page_size=*/256, stats);
    std::vector<uint8_t> page(256, 0x11);
    vc.insert(/*ino=*/5, /*page_idx=*/0, /*version=*/7, page.data(),
              /*valid=*/256, /*ready=*/1000);

    std::vector<uint8_t> out(256, 0);
    Time ready = 50;
    // Version mismatch: dropped, counted stale, never served.
    EXPECT_FALSE(vc.probe(5, 0, /*cur_version=*/8, out.data(), 256,
                          &ready));
    EXPECT_EQ(1u, stats.counter("vc_version_stale").get());
    EXPECT_EQ(0u, vc.residentPages());

    // Short entry: an EOF-tail demotion can't serve a full-page probe.
    vc.insert(5, 1, 7, page.data(), /*valid=*/128, 2000);
    EXPECT_FALSE(vc.probe(5, 1, 7, out.data(), 256, &ready));
    // ...but covers a probe that expects only the tail's length, and
    // the ready time is raised to the staging-completion time.
    EXPECT_TRUE(vc.probe(5, 1, 7, out.data(), 128, &ready));
    EXPECT_EQ(Time{2000}, ready);
    EXPECT_EQ(0x11, out[127]);

    // Range invalidation drops overlapping pages only.
    vc.insert(5, 2, 7, page.data(), 256, 0);
    vc.invalidateRange(5, 2 * 256, 256);
    EXPECT_FALSE(vc.probe(5, 2, 7, out.data(), 256, &ready));
    EXPECT_TRUE(vc.probe(5, 1, 7, out.data(), 128, &ready));
    vc.dropFile(5);
    EXPECT_EQ(0u, vc.residentPages());
}

// ---------------------------------------------------------------------
// gds frame-arena alignment (HwParams::gdsAlignBytes).
// ---------------------------------------------------------------------

TEST(VictimTest, GdsFrameAlignmentCleanOnDefaultShape)
{
    // 64K pages against the default 4K BAR-window alignment: every
    // frame offset is a multiple, the violation counter must be zero.
    GpuFsParams p;
    p.pageSize = 64 * KiB;
    p.cacheBytes = 64 * 64 * KiB;
    GpufsSystem sys(1, p);
    EXPECT_EQ(0u, sys.fs().stats().counter("gds_unaligned_frames").get());
}

TEST(VictimTest, GdsFrameAlignmentCountsViolations)
{
    // Force misalignment: a 128K BAR window over 64K frames leaves
    // every odd frame offset unaligned — exactly half the arena.
    GpuFsParams p;
    p.pageSize = 64 * KiB;
    p.cacheBytes = 64 * 64 * KiB;
    sim::HwParams hw;
    hw.gdsAlignBytes = 128 * KiB;
    GpufsSystem sys(1, p, hw);
    EXPECT_EQ(32u,
              sys.fs().stats().counter("gds_unaligned_frames").get());
}

// ---------------------------------------------------------------------
// Threaded demote/rehit race (the TSan case): concurrent blocks rescan
// a hot region through an undersized arena; evictions demote while
// other blocks' misses probe the same keys.
// ---------------------------------------------------------------------

TEST(VictimTest, ConcurrentDemoteAndRehitKeepsBytesIdentical)
{
    constexpr uint64_t kPages = 64;
    constexpr unsigned kBlocks = 8, kRounds = 3;
    GpuFsParams p;
    p.pageSize = kPage;
    p.cacheBytes = (kPages / 4) * kPage;
    p.readAheadPages = 0;
    p.readAheadPolicy = ReadAheadPolicy::Static;
    p.victimCachePages = 2 * kPages;
    GpufsSystem sys(1, p);
    test::addRamp(sys.hostFs(), "/race", kPages * kPage);

    std::atomic<uint64_t> errors{0};
    gpu::launch(sys.device(0), kBlocks, 512, [&](gpu::BlockCtx &ctx) {
        GpuFs &fs = sys.fs();
        int fd = fs.gopen(ctx, "/race", G_RDONLY);
        gpufs_assert(fd >= 0, "gopen failed");
        std::vector<uint8_t> buf(kPage);
        for (unsigned round = 0; round < kRounds; ++round) {
            for (uint64_t pg = 0; pg < kPages; ++pg) {
                // Stagger blocks so demotes and probes collide.
                uint64_t idx = (pg + ctx.blockId() * 7) % kPages;
                if (fs.gread(ctx, fd, idx * kPage, kPage,
                             buf.data()) != int64_t(kPage)) {
                    errors.fetch_add(1, std::memory_order_relaxed);
                    continue;
                }
                for (size_t i = 0; i < buf.size(); i += 1021) {
                    if (buf[i] != test::rampByte(idx * kPage + i))
                        errors.fetch_add(1, std::memory_order_relaxed);
                }
            }
        }
        fs.gclose(ctx, fd);
    });
    EXPECT_EQ(0u, errors.load());
    EXPECT_GT(daemonCounter(sys, "vc_hits"), 0u);
}

} // namespace
} // namespace core
} // namespace gpufs
