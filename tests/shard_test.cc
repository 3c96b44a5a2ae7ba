/** @file Tests for the sharded multi-GPU buffer cache: shard-map
 *  policies, peer-to-peer page forwarding, cross-GPU lifetime races
 *  (peer fetch vs owner eviction / owner close), host fallback when
 *  the owner's cache is drained, coherent write-through, and the
 *  shared-working-set scaling claim against the Private baseline. */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "gpufs/shard.hh"
#include "gpufs/system.hh"
#include "tests/testutil.hh"

namespace gpufs {
namespace core {
namespace {

std::unique_ptr<GpufsSystem>
makeShardSystem(unsigned num_gpus, ShardPolicy policy,
                uint64_t page_size = 16 * KiB,
                uint64_t cache_bytes = 16 * MiB,
                unsigned pages_per_group = 4)
{
    GpuFsParams p;
    p.pageSize = page_size;
    p.cacheBytes = cache_bytes;
    p.shardPolicy = policy;
    p.shardPagesPerGroup = pages_per_group;
    return std::make_unique<GpufsSystem>(num_gpus, p);
}

uint64_t
counterOf(GpuFs &fs, const char *name)
{
    return fs.stats().counter(name).get();
}

uint64_t
daemonCounter(GpufsSystem &sys, const std::string &name)
{
    return sys.daemon().stats().counter(name).get();
}

/** The daemon's host fallbacks of reason @p why. */
uint64_t
fallbacksOf(GpufsSystem &sys, rpc::PeerCopy why)
{
    return daemonCounter(sys, std::string("peer_fallback_") +
                                  rpc::peerCopyName(why));
}

/** Every reason's fallbacks; they must add up to
 *  peer_pages_host_fallback. */
uint64_t
fallbackReasonSum(GpufsSystem &sys)
{
    uint64_t sum = 0;
    for (unsigned r = 1; r < rpc::kPeerCopyOutcomes; ++r)
        sum += fallbacksOf(sys, static_cast<rpc::PeerCopy>(r));
    return sum;
}

TEST(ShardMapTest, PoliciesPartitionDeterministically)
{
    ShardMap priv(ShardPolicy::Private, 4, 4);
    EXPECT_FALSE(priv.active());

    ShardMap one(ShardPolicy::HashPageGroup, 1, 4);
    EXPECT_FALSE(one.active());     // one GPU: private fallback

    ShardMap hash(ShardPolicy::HashPageGroup, 4, 4);
    ASSERT_TRUE(hash.active());
    bool owner_seen[4] = {};
    for (uint64_t idx = 0; idx < 256; ++idx) {
        unsigned o = hash.ownerOf(7, idx);
        ASSERT_LT(o, 4u);
        owner_seen[o] = true;
        // Constant within a group, and groupEnd bounds the group.
        EXPECT_EQ(o, hash.ownerOf(7, (idx / 4) * 4));
        EXPECT_EQ((idx / 4 + 1) * 4, hash.groupEnd(idx));
    }
    // The mix spreads a single file across every GPU.
    for (bool seen : owner_seen)
        EXPECT_TRUE(seen);

    ShardMap file(ShardPolicy::FileAffinity, 4, 4);
    ASSERT_TRUE(file.active());
    for (uint64_t idx = 0; idx < 64; ++idx)
        EXPECT_EQ(file.ownerOf(9, 0), file.ownerOf(9, idx));
    EXPECT_EQ(UINT64_MAX, file.groupEnd(123));
}

TEST(ShardTest, PeerReadServesFromOwnerResidentPages)
{
    auto sys = makeShardSystem(2, ShardPolicy::HashPageGroup);
    constexpr uint64_t kSize = 1 * MiB;     // 64 pages of 16 KiB
    test::addRamp(sys->hostFs(), "/f", kSize);
    auto ctx0 = test::makeBlock(sys->device(0));
    auto ctx1 = test::makeBlock(sys->device(1));

    // GPU0 scans the whole file cold: its non-owner misses go out as
    // PeerReadPages but GPU1 holds nothing yet — every one falls back
    // to the host.
    int fd0 = sys->fs(0).gopen(ctx0, "/f", G_RDONLY);
    ASSERT_GE(fd0, 0);
    std::vector<uint8_t> buf(kSize);
    ASSERT_EQ(int64_t(kSize),
              sys->fs(0).gread(ctx0, fd0, 0, kSize, buf.data()));
    EXPECT_GT(counterOf(sys->fs(0), "peer_read_rpcs"), 0u);
    EXPECT_GT(counterOf(sys->fs(0), "peer_pages_fallback"), 0u);
    EXPECT_EQ(0u, counterOf(sys->fs(0), "peer_pages_forwarded"));

    // GPU1 scans next: pages owned by GPU0 are resident there now and
    // come back over the P2P path; GPU1's own pages come from the
    // host. The bytes are identical either way.
    int fd1 = sys->fs(1).gopen(ctx1, "/f", G_RDONLY);
    ASSERT_GE(fd1, 0);
    std::vector<uint8_t> buf1(kSize);
    ASSERT_EQ(int64_t(kSize),
              sys->fs(1).gread(ctx1, fd1, 0, kSize, buf1.data()));
    EXPECT_GT(counterOf(sys->fs(1), "peer_pages_forwarded"), 0u);
    for (uint64_t i = 0; i < kSize; i += 509)
        ASSERT_EQ(test::rampByte(i), buf1[i]) << i;

    sys->fs(0).gclose(ctx0, fd0);
    sys->fs(1).gclose(ctx1, fd1);
}

TEST(ShardTest, WaitAfterCloseAcrossGpusStillForwards)
{
    auto sys = makeShardSystem(2, ShardPolicy::HashPageGroup);
    constexpr uint64_t kSize = 512 * KiB;
    test::addRamp(sys->hostFs(), "/f", kSize);
    auto ctx0 = test::makeBlock(sys->device(0));
    auto ctx1 = test::makeBlock(sys->device(1));

    // Owner side: GPU0 caches the file, then closes it. The parked
    // entry's retained cache keeps serving peer reads (§4.1 cache
    // retention crosses the GPU boundary).
    int fd0 = sys->fs(0).gopen(ctx0, "/f", G_RDONLY);
    ASSERT_GE(fd0, 0);
    std::vector<uint8_t> warm(kSize);
    ASSERT_EQ(int64_t(kSize),
              sys->fs(0).gread(ctx0, fd0, 0, kSize, warm.data()));
    ASSERT_EQ(Status::Ok, sys->fs(0).gclose(ctx0, fd0));

    // Requester side: split-phase read, close BOTH ends, then wait —
    // wait-after-close is legal locally and across GPUs.
    int fd1 = sys->fs(1).gopen(ctx1, "/f", G_RDONLY);
    ASSERT_GE(fd1, 0);
    std::vector<uint8_t> buf(kSize);
    IoToken tok = sys->fs(1).gread_async(ctx1, fd1, 0, kSize, buf.data());
    ASSERT_EQ(Status::Ok, sys->fs(1).gclose(ctx1, fd1));
    ASSERT_EQ(int64_t(kSize), sys->fs(1).gwait(ctx1, tok));
    EXPECT_GT(counterOf(sys->fs(1), "peer_pages_forwarded"), 0u);
    for (uint64_t i = 0; i < kSize; i += 1021)
        ASSERT_EQ(test::rampByte(i), buf[i]) << i;
}

TEST(ShardTest, PeerReadFallsBackWhenOwnerDrained)
{
    // Owner cache of 16 frames: streaming a second file evicts the
    // shared one completely, so later peer reads must fall back to the
    // host (and still return correct bytes).
    auto sys = makeShardSystem(2, ShardPolicy::HashPageGroup, 16 * KiB,
                               24 * 16 * KiB);
    constexpr uint64_t kShared = 16 * 16 * KiB;
    test::addRamp(sys->hostFs(), "/shared", kShared);
    test::addRamp(sys->hostFs(), "/stream", 48 * 16 * KiB);
    auto ctx0 = test::makeBlock(sys->device(0));
    auto ctx1 = test::makeBlock(sys->device(1));

    // How many /shared pages does GPU0 own? (The hash is deterministic
    // but opaque; assert on what the map actually says.)
    hostfs::FileInfo info;
    ASSERT_EQ(Status::Ok, sys->hostFs().stat("/shared", &info));
    unsigned gpu0_owned = 0;
    for (uint64_t idx = 0; idx < 16; ++idx)
        gpu0_owned += sys->shardMap().ownerOf(info.ino, idx) == 0;

    int sfd = sys->fs(0).gopen(ctx0, "/shared", G_RDONLY);
    ASSERT_GE(sfd, 0);
    std::vector<uint8_t> buf(kShared);
    ASSERT_EQ(int64_t(kShared),
              sys->fs(0).gread(ctx0, sfd, 0, kShared, buf.data()));
    ASSERT_EQ(Status::Ok, sys->fs(0).gclose(ctx0, sfd));

    // Drain the owner: the closed /shared cache is eviction tier 0.
    int bfd = sys->fs(0).gopen(ctx0, "/stream", G_RDONLY);
    ASSERT_GE(bfd, 0);
    std::vector<uint8_t> chunk(16 * KiB);
    for (uint64_t off = 0; off < 48 * 16 * KiB; off += chunk.size()) {
        ASSERT_EQ(int64_t(chunk.size()),
                  sys->fs(0).gread(ctx0, bfd, off, chunk.size(),
                                   chunk.data()));
    }
    sys->fs(0).gclose(ctx0, bfd);

    int fd1 = sys->fs(1).gopen(ctx1, "/shared", G_RDONLY);
    ASSERT_GE(fd1, 0);
    std::vector<uint8_t> buf1(kShared);
    ASSERT_EQ(int64_t(kShared),
              sys->fs(1).gread(ctx1, fd1, 0, kShared, buf1.data()));
    sys->fs(1).gclose(ctx1, fd1);
    // GPU0-owned pages were gone: served from the host, not the peer.
    if (gpu0_owned > 0) {
        EXPECT_GE(counterOf(sys->fs(1), "peer_pages_fallback"),
                  gpu0_owned);
    }
    for (uint64_t i = 0; i < kShared; i += 509)
        ASSERT_EQ(test::rampByte(i), buf1[i]) << i;
    // Every fallback found the owner drained: its /shared entry still
    // parked with no page Ready (cold), or already destroyed by drained
    // collection (no entry) — as are GPU1's entries for GPU0's reads.
    const uint64_t host = daemonCounter(*sys, "peer_pages_host_fallback");
    EXPECT_GT(host, 0u);
    EXPECT_EQ(host, fallbacksOf(*sys, rpc::PeerCopy::Cold) +
                        fallbacksOf(*sys, rpc::PeerCopy::NoEntry));
    EXPECT_EQ(host, fallbackReasonSum(*sys));
}

TEST(ShardTest, HostWriteMakesPeerReadsFallBackAsStale)
{
    auto sys = makeShardSystem(2, ShardPolicy::HashPageGroup);
    constexpr uint64_t kSize = 512 * KiB;   // 32 pages of 16 KiB
    test::addRamp(sys->hostFs(), "/f", kSize);
    auto ctx0 = test::makeBlock(sys->device(0));
    auto ctx1 = test::makeBlock(sys->device(1));
    hostfs::FileInfo info;
    ASSERT_EQ(Status::Ok, sys->hostFs().stat("/f", &info));
    uint64_t gpu0_owned = 0;
    for (uint64_t idx = 0; idx < kSize / (16 * KiB); ++idx)
        gpu0_owned += sys->shardMap().ownerOf(info.ino, idx) == 0;
    ASSERT_GT(gpu0_owned, 0u);

    // GPU0 caches the whole file and keeps it open.
    int fd0 = sys->fs(0).gopen(ctx0, "/f", G_RDONLY);
    ASSERT_GE(fd0, 0);
    std::vector<uint8_t> buf(kSize);
    ASSERT_EQ(int64_t(kSize),
              sys->fs(0).gread(ctx0, fd0, 0, kSize, buf.data()));

    // A host-side write moves the version past GPU0's cached one.
    int hfd = sys->hostFs().open("/f", hostfs::O_RDWR_F);
    ASSERT_GE(hfd, 0);
    const uint8_t nv = uint8_t(~test::rampByte(0));
    sys->hostFs().pwrite(hfd, &nv, 1, 0);
    sys->hostFs().close(hfd);

    // GPU1 opens at the new version: every page GPU0 owns fails the
    // owner's version gate and comes from the host, new bytes and all.
    const uint64_t stale0 = fallbacksOf(*sys, rpc::PeerCopy::Stale);
    const uint64_t fwd0 = counterOf(sys->fs(1), "peer_pages_forwarded");
    int fd1 = sys->fs(1).gopen(ctx1, "/f", G_RDONLY);
    ASSERT_GE(fd1, 0);
    ASSERT_EQ(int64_t(kSize),
              sys->fs(1).gread(ctx1, fd1, 0, kSize, buf.data()));
    EXPECT_EQ(nv, buf[0]);
    for (uint64_t i = 1; i < kSize; i += 509)
        ASSERT_EQ(test::rampByte(i), buf[i]) << i;
    EXPECT_EQ(gpu0_owned, fallbacksOf(*sys, rpc::PeerCopy::Stale) - stale0);
    EXPECT_EQ(fwd0, counterOf(sys->fs(1), "peer_pages_forwarded"));
    EXPECT_EQ(daemonCounter(*sys, "peer_pages_host_fallback"),
              fallbackReasonSum(*sys));
    sys->fs(1).gclose(ctx1, fd1);
    sys->fs(0).gclose(ctx0, fd0);
}

TEST(ShardTest, PeerFetchRacesOwnerEvictionAndClose)
{
    // The cross-GPU lifetime stress (TSan target): one thread streams
    // on the owner — constantly evicting and re-fetching, opening and
    // closing — while the other hammers peer reads of the shared file.
    // Every read must return correct bytes regardless of whether it
    // was forwarded or fell back mid-race.
    auto sys = makeShardSystem(2, ShardPolicy::HashPageGroup, 16 * KiB,
                               32 * 16 * KiB);
    constexpr uint64_t kShared = 16 * 16 * KiB;
    test::addRamp(sys->hostFs(), "/shared", kShared);
    test::addRamp(sys->hostFs(), "/churn", 64 * 16 * KiB);
    std::atomic<uint64_t> errors{0};

    std::thread owner([&] {
        auto ctx = test::makeBlock(sys->device(0));
        std::vector<uint8_t> b(16 * KiB);
        for (int round = 0; round < 6; ++round) {
            int sfd = sys->fs(0).gopen(ctx, "/shared", G_RDONLY);
            if (sfd < 0) { errors.fetch_add(1); return; }
            for (uint64_t off = 0; off < kShared; off += b.size())
                if (sys->fs(0).gread(ctx, sfd, off, b.size(), b.data())
                    != int64_t(b.size()))
                    errors.fetch_add(1);
            sys->fs(0).gclose(ctx, sfd);
            int cfd = sys->fs(0).gopen(ctx, "/churn", G_RDONLY);
            if (cfd < 0) { errors.fetch_add(1); return; }
            for (uint64_t off = 0; off < 64 * 16 * KiB; off += b.size())
                if (sys->fs(0).gread(ctx, cfd, off, b.size(), b.data())
                    != int64_t(b.size()))
                    errors.fetch_add(1);
            sys->fs(0).gclose(ctx, cfd);
        }
    });
    std::thread reader([&] {
        auto ctx = test::makeBlock(sys->device(1));
        std::vector<uint8_t> b(32 * KiB);
        for (int round = 0; round < 12; ++round) {
            int fd = sys->fs(1).gopen(ctx, "/shared", G_RDONLY);
            if (fd < 0) { errors.fetch_add(1); return; }
            for (uint64_t off = 0; off + b.size() <= kShared;
                 off += b.size()) {
                if (sys->fs(1).gread(ctx, fd, off, b.size(), b.data())
                    != int64_t(b.size())) {
                    errors.fetch_add(1);
                    continue;
                }
                for (uint64_t i = 0; i < b.size(); i += 1021)
                    if (b[i] != test::rampByte(off + i))
                        errors.fetch_add(1);
            }
            sys->fs(1).gclose(ctx, fd);
        }
    });
    owner.join();
    reader.join();
    EXPECT_EQ(0u, errors.load());
    EXPECT_EQ(0u, sys->hostFs().openCount());
}

TEST(ShardTest, NonOwnerWriteForwardKeepsOwnerCoherent)
{
    auto sys = makeShardSystem(2, ShardPolicy::FileAffinity);
    constexpr uint64_t kSize = 64 * KiB;
    test::addRamp(sys->hostFs(), "/w", kSize);

    // FileAffinity: one GPU owns every page; the other writes.
    hostfs::FileInfo info;
    ASSERT_EQ(Status::Ok, sys->hostFs().stat("/w", &info));
    unsigned o = sys->shardMap().ownerOf(info.ino, 0);
    unsigned w = 1 - o;
    auto ctx_o = test::makeBlock(sys->device(o));
    auto ctx_w = test::makeBlock(sys->device(w));

    // Owner caches page 0 (read-only open: a reader may coexist with
    // the remote writer under the consistency rules).
    int ofd = sys->fs(o).gopen(ctx_o, "/w", G_RDONLY);
    ASSERT_GE(ofd, 0);
    std::vector<uint8_t> before(1024);
    ASSERT_EQ(int64_t(before.size()),
              sys->fs(o).gread(ctx_o, ofd, 0, before.size(),
                               before.data()));

    // Non-owner writes into page 0. The read-modify-write fetch is
    // itself a peer read; the gfsync drain then rides PeerWritePages:
    // host write-through plus a mirror into the owner's resident copy.
    int wfd = sys->fs(w).gopen(ctx_w, "/w", G_RDWR);
    ASSERT_GE(wfd, 0);
    std::vector<uint8_t> patch(100, 0xCD);
    ASSERT_EQ(int64_t(patch.size()),
              sys->fs(w).gwrite(ctx_w, wfd, 100, patch.size(),
                                patch.data()));
    ASSERT_EQ(Status::Ok, sys->fs(w).gfsync(ctx_w, wfd));
    EXPECT_GE(counterOf(sys->fs(w), "peer_write_rpcs"), 1u);
    EXPECT_GE(counterOf(sys->fs(w), "peer_extents_mirrored"), 1u);

    // Host got the bytes (durability unchanged by the mirror).
    int hfd = sys->hostFs().open("/w", hostfs::O_RDONLY_F);
    ASSERT_GE(hfd, 0);
    std::vector<uint8_t> host(100);
    sys->hostFs().pread(hfd, host.data(), host.size(), 100);
    sys->hostFs().close(hfd);
    for (auto b : host)
        ASSERT_EQ(0xCD, b);

    // The owner's resident copy was mirrored: its next read serves the
    // NEW bytes from cache, no invalidation round-trip.
    std::vector<uint8_t> after(100);
    ASSERT_EQ(int64_t(after.size()),
              sys->fs(o).gread(ctx_o, ofd, 100, after.size(),
                               after.data()));
    for (auto b : after)
        ASSERT_EQ(0xCD, b);

    // And the version was published along with the mirror: reopening
    // on the owner revalidates the cache instead of dropping it.
    uint64_t invals = counterOf(sys->fs(o), "cache_invalidations");
    ASSERT_EQ(Status::Ok, sys->fs(o).gclose(ctx_o, ofd));
    int refd = sys->fs(o).gopen(ctx_o, "/w", G_RDONLY);
    ASSERT_GE(refd, 0);
    EXPECT_EQ(invals, counterOf(sys->fs(o), "cache_invalidations"));
    sys->fs(o).gclose(ctx_o, refd);
    sys->fs(w).gclose(ctx_w, wfd);
}

TEST(ShardTest, SharedScanShardedBeatsPrivateAt4Gpus)
{
    // The acceptance property: on a shared-working-set read workload
    // at 4 GPUs, sharded mode services >= 50% of non-owner misses via
    // PeerReadPages, the host read-RPC count drops accordingly, and
    // the end-to-end span beats the Private baseline.
    //
    // The regime that motivates sharding: the shared working set fits
    // the AGGREGATE GPU cache but not the host page cache, so every
    // private-mode re-read goes back to the serialized disk while
    // sharded mode serves it GPU-to-GPU and bypasses the host
    // entirely.
    constexpr unsigned kGpus = 4;
    constexpr uint64_t kPage = 64 * KiB;
    constexpr uint64_t kPages = 128;
    constexpr uint64_t kSize = kPages * kPage;  // 8 MiB shared file
    constexpr unsigned kGroup = 4;
    sim::HwParams hw;
    hw.hostCacheBytes = 1 * MiB;    // host cache << working set

    struct Result {
        Time span = 0;
        uint64_t hostReads = 0;
        uint64_t forwarded = 0;
        uint64_t fallback = 0;
    };
    // The same reference assignment warms owners in BOTH modes, so the
    // two runs do identical phase-A work and differ only in phase B.
    auto run = [&](ShardPolicy policy) -> Result {
        GpuFsParams p;
        p.pageSize = kPage;
        p.cacheBytes = 4 * kSize;
        p.shardPolicy = policy;
        p.shardPagesPerGroup = kGroup;
        auto sys = std::make_unique<GpufsSystem>(kGpus, p, hw);
        test::addRamp(sys->hostFs(), "/shared", kSize);
        hostfs::FileInfo info;
        EXPECT_EQ(Status::Ok, sys->hostFs().stat("/shared", &info));
        ShardMap ref(ShardPolicy::HashPageGroup, kGpus, kGroup);

        int fds[kGpus];
        std::vector<uint8_t> page(kPage);
        // Phase A: every GPU warms exactly the pages the reference
        // map assigns it (first-toucher cost, identical across modes).
        for (unsigned g = 0; g < kGpus; ++g) {
            auto ctx = test::makeBlock(sys->device(g));
            fds[g] = sys->fs(g).gopen(ctx, "/shared", G_RDONLY);
            EXPECT_GE(fds[g], 0);
            for (uint64_t idx = 0; idx < kPages; ++idx) {
                if (ref.ownerOf(info.ino, idx) != g)
                    continue;
                EXPECT_EQ(int64_t(kPage),
                          sys->fs(g).gread(ctx, fds[g], idx * kPage,
                                           kPage, page.data()));
            }
        }
        uint64_t host_before = 0;
        for (unsigned g = 0; g < kGpus; ++g) {
            host_before += counterOf(sys->fs(g), "read_rpcs") +
                counterOf(sys->fs(g), "batch_read_rpcs");
        }
        // Phase B: every GPU scans the WHOLE shared file.
        Result r;
        std::vector<uint8_t> buf(kSize);
        for (unsigned g = 0; g < kGpus; ++g) {
            auto ctx = test::makeBlock(sys->device(g));
            Time t0 = ctx.now();
            EXPECT_EQ(int64_t(kSize),
                      sys->fs(g).gread(ctx, fds[g], 0, kSize,
                                       buf.data()));
            r.span = std::max(r.span, ctx.now() - t0);
            for (uint64_t i = 0; i < kSize; i += 4093)
                EXPECT_EQ(test::rampByte(i), buf[i]) << i;
        }
        for (unsigned g = 0; g < kGpus; ++g) {
            r.hostReads += counterOf(sys->fs(g), "read_rpcs") +
                counterOf(sys->fs(g), "batch_read_rpcs");
            r.forwarded += counterOf(sys->fs(g), "peer_pages_forwarded");
            r.fallback += counterOf(sys->fs(g), "peer_pages_fallback");
            auto ctx = test::makeBlock(sys->device(g));
            sys->fs(g).gclose(ctx, fds[g]);
        }
        r.hostReads -= host_before;
        return r;
    };

    Result priv = run(ShardPolicy::Private);
    Result shard = run(ShardPolicy::HashPageGroup);

    EXPECT_EQ(0u, priv.forwarded);
    // Every non-owner miss found the owner warm: >= 50% (here ~100%)
    // of them rode PeerReadPages instead of the host.
    ASSERT_GT(shard.forwarded + shard.fallback, 0u);
    EXPECT_GE(shard.forwarded * 2, shard.forwarded + shard.fallback);
    // Host read-RPC count drops accordingly.
    EXPECT_LE(shard.hostReads * 2, priv.hostReads);
    // And the shared-working-set span beats the private baseline.
    EXPECT_LT(shard.span, priv.span);
}

// The host-fallback path of PeerReadPages warms the owner inside the
// same RPC: the bytes the daemon read for the requester are adopted
// into the owner's free frames, so a REPEAT scan finds the owner hot —
// peer_pages_host_fallback stops growing and the re-misses ride the
// P2P forward path instead of a second round of host reads.
TEST(ShardTest, HostFallbackWarmsOwnerSoRepeatScanForwards)
{
    // Geometry: the 64-page file exceeds the 56-frame per-GPU cache
    // (so the requester's second scan genuinely re-misses), while the
    // owner's hash share fits its free headroom above claimReserve
    // (so every fallback page can be adopted).
    constexpr uint64_t kPg = 16 * KiB;
    constexpr uint64_t kFilePages = 64;
    auto sys = makeShardSystem(2, ShardPolicy::HashPageGroup, kPg,
                               56 * kPg);
    test::addRamp(sys->hostFs(), "/warm", kFilePages * kPg);
    auto ctx0 = test::makeBlock(sys->device(0));
    auto ctx1 = test::makeBlock(sys->device(1));

    hostfs::FileInfo info;
    ASSERT_EQ(Status::Ok, sys->hostFs().stat("/warm", &info));
    unsigned gpu0_owned = 0;
    for (uint64_t idx = 0; idx < kFilePages; ++idx)
        gpu0_owned += sys->shardMap().ownerOf(info.ino, idx) == 0;
    ASSERT_GT(gpu0_owned, 0u);
    // Adoption stops at claimReserve: the owner must have headroom for
    // its whole share or the repeat scan would re-fall-back on the
    // unadopted tail. Deterministic hash — fails only if the geometry
    // above is changed.
    ASSERT_LE(gpu0_owned,
              56 - sys->fs(0).bufferCache().claimReserve());

    // Owner opens the file (a serving owner holds its shard open) but
    // reads NOTHING: its frames stay cold until warming fills them.
    int fd0 = sys->fs(0).gopen(ctx0, "/warm", G_RDONLY);
    ASSERT_GE(fd0, 0);

    auto daemonStat = [&](const char *n) {
        return sys->daemon().stats().counter(n).get();
    };

    // Scan 1: every GPU0-owned page misses on the cold owner and falls
    // back to the host — and is adopted into GPU0's frames en route.
    int fd1 = sys->fs(1).gopen(ctx1, "/warm", G_RDONLY);
    ASSERT_GE(fd1, 0);
    std::vector<uint8_t> buf(kFilePages * kPg);
    ASSERT_EQ(int64_t(buf.size()),
              sys->fs(1).gread(ctx1, fd1, 0, buf.size(), buf.data()));
    const uint64_t fallback_after_cold =
        daemonStat("peer_pages_host_fallback");
    ASSERT_GT(fallback_after_cold, 0u);
    EXPECT_GE(daemonStat("peer_pages_adopted"), uint64_t(gpu0_owned));
    const uint64_t forwarded_cold =
        counterOf(sys->fs(1), "peer_pages_forwarded");

    // Scan 2: the requester re-misses (file > cache), but the owner is
    // now warm — the fallback counter must NOT grow.
    ASSERT_EQ(int64_t(buf.size()),
              sys->fs(1).gread(ctx1, fd1, 0, buf.size(), buf.data()));
    EXPECT_EQ(fallback_after_cold,
              daemonStat("peer_pages_host_fallback"));
    EXPECT_GT(counterOf(sys->fs(1), "peer_pages_forwarded"),
              forwarded_cold);
    for (uint64_t i = 0; i < buf.size(); i += 509)
        ASSERT_EQ(test::rampByte(i), buf[i]) << i;

    sys->fs(1).gclose(ctx1, fd1);
    sys->fs(0).gclose(ctx0, fd0);
}

// Owners keep their shards resident, in the `shared` benchmark's shape
// with small pages: two GPUs, one block each, scan one file 1.5x an
// arena, starting half a file apart. Each arena holds its GPU's whole
// owned half plus room for other GPUs' pages, so with reclaim taking
// those first, every non-owner miss of the repeat scan finds its owner
// warm and forwards over P2P instead of going back to the host.
TEST(ShardTest, OwnersKeepTheirShardResidentUnderPressure)
{
    constexpr unsigned kGpus = 2;
    constexpr uint64_t kPg = 16 * KiB;
    constexpr uint64_t kFrames = 128;
    constexpr uint64_t kFilePages = kFrames * 3 / 2;
    auto sys = makeShardSystem(kGpus, ShardPolicy::HashPageGroup, kPg,
                               kFrames * kPg);
    test::addRamp(sys->hostFs(), "/shared", kFilePages * kPg);
    hostfs::FileInfo info;
    ASSERT_EQ(Status::Ok, sys->hostFs().stat("/shared", &info));
    // Each owner's half must leave a reclaim batch of frames for other
    // GPUs' pages. Deterministic hash: fails only if the geometry above
    // is changed.
    for (unsigned g = 0; g < kGpus; ++g) {
        uint64_t owned = 0;
        for (uint64_t idx = 0; idx < kFilePages; ++idx)
            owned += sys->shardMap().ownerOf(info.ino, idx) == g;
        ASSERT_LE(owned + BufferCache::kReclaimBatch, kFrames) << g;
    }

    int fds[kGpus];
    for (unsigned g = 0; g < kGpus; ++g) {
        auto ctx = test::makeBlock(sys->device(g));
        fds[g] = sys->fs(g).gopen(ctx, "/shared", G_RDONLY);
        ASSERT_GE(fds[g], 0);
    }
    std::atomic<uint64_t> errors{0};
    // One pass over the file, page by page, from GPU g's start.
    auto scan = [&](unsigned g) {
        auto ctx = test::makeBlock(sys->device(g));
        std::vector<uint8_t> b(kPg);
        for (uint64_t n = 0; n < kFilePages; ++n) {
            const uint64_t off =
                (n + g * kFilePages / kGpus) % kFilePages * kPg;
            if (sys->fs(g).gread(ctx, fds[g], off, kPg, b.data()) !=
                int64_t(kPg)) {
                errors.fetch_add(1);
                continue;
            }
            for (uint64_t i = 0; i < kPg; i += 1021) {
                if (b[i] != test::rampByte(off + i))
                    errors.fetch_add(1);
            }
        }
    };

    // First scan, one GPU after the other; the second on both at once.
    for (unsigned g = 0; g < kGpus; ++g)
        scan(g);
    uint64_t fwd0[kGpus], back0[kGpus];
    for (unsigned g = 0; g < kGpus; ++g) {
        fwd0[g] = counterOf(sys->fs(g), "peer_pages_forwarded");
        back0[g] = counterOf(sys->fs(g), "peer_pages_fallback");
    }
    const uint64_t host0 = daemonCounter(*sys, "peer_pages_host_fallback");
    std::vector<std::thread> threads;
    for (unsigned g = 0; g < kGpus; ++g)
        threads.emplace_back(scan, g);
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(0u, errors.load());

    uint64_t misses = 0;
    for (unsigned g = 0; g < kGpus; ++g) {
        const uint64_t fwd =
            counterOf(sys->fs(g), "peer_pages_forwarded") - fwd0[g];
        const uint64_t back =
            counterOf(sys->fs(g), "peer_pages_fallback") - back0[g];
        misses += fwd + back;
        // The file outgrows the arena, so the repeat scan re-misses
        // other GPUs' pages; nearly all of them forward. Measured over
        // six runs each: 80/80 per GPU here, 0/40 to 27/40 when
        // eviction ignored ownership.
        ASSERT_GT(fwd + back, 0u) << g;
        EXPECT_GE(double(fwd), 0.9 * double(fwd + back)) << g;
    }
    // And the host stops re-reading the file: 0 of 160 here, 52 to 68
    // of 80 when eviction ignored ownership.
    const uint64_t host =
        daemonCounter(*sys, "peer_pages_host_fallback") - host0;
    EXPECT_LE(double(host), 0.1 * double(misses));
    EXPECT_EQ(daemonCounter(*sys, "peer_pages_host_fallback"),
              fallbackReasonSum(*sys));
    for (unsigned g = 0; g < kGpus; ++g) {
        auto ctx = test::makeBlock(sys->device(g));
        sys->fs(g).gclose(ctx, fds[g]);
    }
}

// Read-ahead survives a full arena on the peer path. The `shared`
// benchmark's shape at half scale, with 128 KB pages, each pass one GPU
// at a time: once both arenas are full, a non-owner miss's window
// reclaims the frames it lacks and forwards its shard group's run over
// P2P in a few PeerReadPages. Unread prefetched pages are evicted last,
// so none dies unread, and each page of a window is ready once the copy
// has moved it, so no read of a prefetched page waits longer than a
// demand miss.
TEST(ShardTest, PeerServedWindowsReclaimInAFullArena)
{
    constexpr unsigned kGpus = 2;
    constexpr uint64_t kPg = 128 * KiB;
    constexpr uint64_t kFrames = 256;
    constexpr uint64_t kFilePages = kFrames * 3 / 2;
    constexpr unsigned kGroup = 16;
    auto sys = makeShardSystem(kGpus, ShardPolicy::HashPageGroup, kPg,
                               kFrames * kPg, kGroup);
    // The first file takes inode 1; /ra's inode 2 splits it evenly.
    test::addRamp(sys->hostFs(), "/pad", kPg);
    test::addRamp(sys->hostFs(), "/ra", kFilePages * kPg);
    hostfs::FileInfo info;
    ASSERT_EQ(Status::Ok, sys->hostFs().stat("/ra", &info));
    // Each owner's share, the claim reserve and a window batch must fit
    // one arena. Deterministic hash: fails only if the geometry above
    // is changed.
    const uint32_t reserve = sys->fs(0).bufferCache().claimReserve();
    for (unsigned g = 0; g < kGpus; ++g) {
        uint64_t owned = 0;
        for (uint64_t idx = 0; idx < kFilePages; ++idx)
            owned += sys->shardMap().ownerOf(info.ino, idx) == g;
        ASSERT_LE(owned + reserve + kGroup, kFrames) << g;
    }

    std::vector<gpu::BlockCtx> ctx;
    int fds[kGpus];
    for (unsigned g = 0; g < kGpus; ++g) {
        ctx.push_back(test::makeBlock(sys->device(g)));
        fds[g] = sys->fs(g).gopen(ctx[g], "/ra", G_RDONLY);
        ASSERT_GE(fds[g], 0);
    }
    // The pages every read RPC of every GPU carried, and the RPCs.
    auto readPages = [&] {
        uint64_t n = 0;
        for (unsigned g = 0; g < kGpus; ++g) {
            for (const char *c : {"read_rpcs", "batch_read_pages",
                                  "peer_pages_forwarded",
                                  "peer_pages_fallback"})
                n += counterOf(sys->fs(g), c);
        }
        return n;
    };
    auto readRpcs = [&] {
        uint64_t n = 0;
        for (unsigned g = 0; g < kGpus; ++g) {
            for (const char *c :
                 {"read_rpcs", "batch_read_rpcs", "peer_read_rpcs"})
                n += counterOf(sys->fs(g), c);
        }
        return n;
    };
    // One pass over the file in order on GPU g: the slowest gread, and
    // the slowest one that took a demand miss.
    Time slowest = 0, slowest_miss = 0;
    auto scan = [&](unsigned g) {
        GpuFs &fs = sys->fs(g);
        // Each pass starts once the one before it has ended.
        for (unsigned o = 0; o < kGpus; ++o)
            ctx[g].waitUntil(ctx[o].now());
        std::vector<uint8_t> b(kPg);
        for (uint64_t idx = 0; idx < kFilePages; ++idx) {
            const uint64_t misses = counterOf(fs, "cache_misses");
            const Time start = ctx[g].now();
            ASSERT_EQ(int64_t(kPg),
                      fs.gread(ctx[g], fds[g], idx * kPg, kPg, b.data()));
            const Time took = ctx[g].now() - start;
            slowest = std::max(slowest, took);
            if (counterOf(fs, "cache_misses") != misses)
                slowest_miss = std::max(slowest_miss, took);
            for (uint64_t i = 0; i < kPg; i += 4093)
                ASSERT_EQ(test::rampByte(idx * kPg + i), b[i]) << idx;
        }
    };

    for (unsigned g = 0; g < kGpus; ++g)
        scan(g);
    const uint64_t pages0 = readPages(), rpcs0 = readRpcs();
    slowest = slowest_miss = 0;
    for (unsigned g = 0; g < kGpus; ++g)
        scan(g);

    const uint64_t rpcs = readRpcs() - rpcs0;
    ASSERT_GT(rpcs, 0u);
    // One page per RPC when windows stopped at the claim reserve.
    EXPECT_GT(double(readPages() - pages0) / double(rpcs), 2.0);
    for (unsigned g = 0; g < kGpus; ++g) {
        EXPECT_GT(counterOf(sys->fs(g), "ra_issued"), 0u) << g;
        EXPECT_EQ(0u, counterOf(sys->fs(g), "ra_wasted")) << g;
    }
    ASSERT_GT(slowest_miss, 0u);
    EXPECT_LE(slowest, slowest_miss);
    for (unsigned g = 0; g < kGpus; ++g)
        sys->fs(g).gclose(ctx[g], fds[g]);
}

} // namespace
} // namespace core
} // namespace gpufs
