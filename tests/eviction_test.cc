/** @file Unit tests for the BufferCache eviction policies. The fixture
 *  builds a BufferCache directly on a device + RPC queue — no GpuFs
 *  instance — which is itself part of the contract under test: the
 *  cache layer must be independently constructible. */

#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <vector>

#include "consistency/consistency.hh"
#include "gpu/device.hh"
#include "gpufs/buffer_cache.hh"
#include "gpufs/shard.hh"
#include "hostfs/hostfs.hh"
#include "rpc/daemon.hh"
#include "tests/testutil.hh"

namespace gpufs {
namespace core {
namespace {

constexpr uint64_t kPage = 16 * KiB;

class EvictionTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        queue = &daemon.attachGpu(dev);
        daemon.start();
    }

    void TearDown() override { daemon.stop(); }

    std::unique_ptr<BufferCache>
    makeCache(EvictionPolicyKind kind, uint64_t frames,
              std::optional<unsigned> read_ahead_pages = std::nullopt)
    {
        GpuFsParams p;
        p.pageSize = kPage;
        p.cacheBytes = frames * kPage;
        p.evictPolicy = kind;
        p.readAheadPages = read_ahead_pages;
        return std::make_unique<BufferCache>(dev, *queue, p, stats);
    }

    /** Open @p path on the host and point @p f at it. */
    void
    openFile(BufferCache &bc, CacheFile &f, const std::string &path,
             bool write)
    {
        rpc::RpcRequest req;
        req.op = rpc::RpcOp::Open;
        std::strncpy(req.path, path.c_str(), rpc::kMaxPath - 1);
        req.flags = write ? hostfs::O_RDWR_F : hostfs::O_RDONLY_F;
        req.wantsWrite = write;
        rpc::RpcResponse resp = queue->call(req);
        ASSERT_EQ(Status::Ok, resp.status);
        f.hostFd = resp.hostFd;
        f.ino = resp.ino;
        f.size.store(resp.size, std::memory_order_relaxed);
        f.version.store(resp.version, std::memory_order_relaxed);
        f.write = write;
        bc.attach(f);
        bc.setupFile(f);
    }

    /** Pin + unpin @p n pages of @p f, making them resident. */
    void
    loadPages(BufferCache &bc, gpu::BlockCtx &ctx, CacheFile &f, unsigned n)
    {
        for (unsigned i = 0; i < n; ++i) {
            uint32_t frame;
            FPage *fp;
            ASSERT_EQ(Status::Ok,
                      bc.pinPage(ctx, f, i, &frame, &fp, false));
            f.cache->unpin(*fp);
        }
    }

    /** Pin page @p idx, overwrite it with @p fill, mark dirty, unpin. */
    void
    dirtyPage(BufferCache &bc, gpu::BlockCtx &ctx, CacheFile &f,
              uint64_t idx, uint8_t fill)
    {
        uint32_t frame;
        FPage *fp;
        ASSERT_EQ(Status::Ok, bc.pinPage(ctx, f, idx, &frame, &fp, true));
        std::memset(bc.arena().data(frame), fill, kPage);
        f.cache->noteDirty(bc.arena().frame(frame), 0, kPage);
        f.cache->unpin(*fp);
    }

    bool
    pageResident(CacheFile &f, uint64_t idx)
    {
        FPage *p = f.cache->getPage(idx);
        uint32_t frame;
        if (!f.cache->tryPinReady(*p, idx, &frame))
            return false;
        f.cache->unpin(*p);
        return true;
    }

    sim::SimContext sim;
    hostfs::HostFs fs{sim};
    consistency::ConsistencyMgr mgr;
    gpu::GpuDevice dev{sim, 0};
    rpc::CpuDaemon daemon{fs, mgr};
    rpc::RpcQueue *queue = nullptr;
    StatSet stats{"eviction_test"};
};

TEST_F(EvictionTest, PaperPolicyEvictsClosedCleanThenOpenRoThenWritable)
{
    auto bc = makeCache(EvictionPolicyKind::PaperTiered, 8);
    test::addRamp(fs, "/closed", 2 * kPage);
    test::addRamp(fs, "/ro", 2 * kPage);
    test::addBytes(fs, "/rw", std::vector<uint8_t>(2 * kPage, 0));
    auto ctx = test::makeBlock(dev);

    CacheFile closed_clean, open_ro, writable;
    openFile(*bc, closed_clean, "/closed", false);
    openFile(*bc, open_ro, "/ro", false);
    openFile(*bc, writable, "/rw", true);
    loadPages(*bc, ctx, closed_clean, 2);
    loadPages(*bc, ctx, open_ro, 2);
    dirtyPage(*bc, ctx, writable, 0, 0xAB);
    dirtyPage(*bc, ctx, writable, 1, 0xCD);
    bc->parkFile(closed_clean, 1);      // -> closed table, clean

    // Tier 1: the closed clean file goes first, nothing else touched.
    EXPECT_EQ(2u, bc->reclaimFrames(ctx, 2));
    EXPECT_EQ(0u, closed_clean.cache->residentPages());
    EXPECT_EQ(2u, open_ro.cache->residentPages());
    EXPECT_EQ(2u, writable.cache->residentPages());

    // Tier 2: open read-only files.
    EXPECT_EQ(2u, bc->reclaimFrames(ctx, 2));
    EXPECT_EQ(0u, open_ro.cache->residentPages());
    EXPECT_EQ(2u, writable.cache->residentPages());

    // Tier 3 (last resort): writable files, dirty pages written home.
    EXPECT_EQ(2u, bc->reclaimFrames(ctx, 2));
    EXPECT_EQ(0u, writable.cache->residentPages());
    EXPECT_EQ(0u, writable.cache->dirtyCount());
    int hfd = fs.open("/rw", hostfs::O_RDONLY_F);
    uint8_t a = 0, b = 0;
    fs.pread(hfd, &a, 1, 100);
    fs.pread(hfd, &b, 1, kPage + 100);
    EXPECT_EQ(0xAB, a);
    EXPECT_EQ(0xCD, b);
    fs.close(hfd);
}

TEST_F(EvictionTest, GlobalLruEvictsOldestAccessedPageFirst)
{
    auto bc = makeCache(EvictionPolicyKind::GlobalLru, 8);
    test::addRamp(fs, "/f", 4 * kPage);
    auto ctx = test::makeBlock(dev);

    CacheFile f;
    openFile(*bc, f, "/f", false);
    loadPages(*bc, ctx, f, 4);
    // Re-touch page 0: page 1 becomes the globally oldest access.
    EXPECT_TRUE(pageResident(f, 0));

    EXPECT_EQ(1u, bc->reclaimFrames(ctx, 1));
    EXPECT_TRUE(pageResident(f, 0));
    EXPECT_FALSE(pageResident(f, 1));
    EXPECT_TRUE(pageResident(f, 2));
    EXPECT_TRUE(pageResident(f, 3));
}

// Owners keep their shards resident: on a sharded file the paper policy
// takes the pages another GPU owns, in the file's FIFO order, while any
// of them is evictable, and this GPU's own pages only after them. A
// private file keeps the plain order, lowest page index first.
TEST_F(EvictionTest, ShardedFileEvictsOtherGpusPagesFirst)
{
    constexpr uint64_t kPages = 16;
    const ShardMap shards(ShardPolicy::HashPageGroup, 2, 2);
    test::addRamp(fs, "/sharded", kPages * kPage);
    test::addRamp(fs, "/private", kPages * kPage);
    auto ctx = test::makeBlock(dev);

    // Load every page with page @p pinned held pinned, then reclaim one
    // frame at a time: the order the pages leave in.
    auto evictionOrder = [&](const char *path, const ShardMap *map,
                             uint64_t pinned) {
        auto bc = makeCache(EvictionPolicyKind::PaperTiered, 2 * kPages);
        bc->setShardMap(map);
        CacheFile f;
        openFile(*bc, f, path, false);
        loadPages(*bc, ctx, f, kPages);
        uint32_t frame;
        FPage *fp;
        EXPECT_EQ(Status::Ok,
                  bc->pinPage(ctx, f, pinned, &frame, &fp, false));
        std::vector<uint64_t> order;
        std::vector<bool> gone(kPages, false);
        while (bc->reclaimFrames(ctx, 1) == 1) {
            for (uint64_t i = 0; i < kPages; ++i) {
                if (!gone[i] && !pageResident(f, i)) {
                    gone[i] = true;
                    order.push_back(i);
                }
            }
        }
        EXPECT_TRUE(pageResident(f, pinned));
        f.cache->unpin(*fp);
        return order;
    };

    // This device is GPU 0. The pinned page is the first one GPU 1
    // owns: the owned pages wait for every OTHER evictable one.
    hostfs::FileInfo info;
    ASSERT_EQ(Status::Ok, fs.stat("/sharded", &info));
    std::vector<uint64_t> owned, others;
    for (uint64_t i = 0; i < kPages; ++i)
        (shards.ownerOf(info.ino, i) == 0 ? owned : others).push_back(i);
    ASSERT_FALSE(owned.empty());
    ASSERT_GE(others.size(), 2u);
    const uint64_t pinned = others.front();
    std::vector<uint64_t> expect(others.begin() + 1, others.end());
    expect.insert(expect.end(), owned.begin(), owned.end());
    EXPECT_EQ(expect, evictionOrder("/sharded", &shards, pinned));

    // Private: the same steps evict in index order, skipping the pin.
    expect.clear();
    for (uint64_t i = 0; i < kPages; ++i) {
        if (i != pinned)
            expect.push_back(i);
    }
    EXPECT_EQ(expect, evictionOrder("/private", nullptr, pinned));
}

// Unread prefetched pages are evicted last: a reclaim the file's read
// pages can cover leaves them resident, and one they cannot cover takes
// them only after every read page, each counted in ra_wasted. Leaf
// order puts the unread pages first in the FIFO walk.
TEST_F(EvictionTest, UnreadPrefetchedPagesAreEvictedLast)
{
    // A static 4-page window on every miss; 32 frames leave the claim
    // reserve (8) free for it.
    auto bc = makeCache(EvictionPolicyKind::PaperTiered, 32, 4);
    test::addRamp(fs, "/ra", 80 * kPage);
    auto ctx = test::makeBlock(dev);
    CacheFile f;
    openFile(*bc, f, "/ra", false);
    auto pin = [&](uint64_t idx) {
        uint32_t frame;
        FPage *fp;
        ASSERT_EQ(Status::Ok,
                  bc->pinPage(ctx, f, idx, &frame, &fp, false));
        f.cache->unpin(*fp);
    };
    // Leaf 0 (pages 0-63, the oldest): page 0 read, 1-4 prefetched and
    // never read. Leaf 1: page 64 and its window 65-68, all read.
    pin(0);
    for (uint64_t idx = 64; idx <= 68; ++idx)
        pin(idx);
    const std::vector<uint64_t> unread = {1, 2, 3, 4};
    for (uint64_t idx : unread)
        ASSERT_TRUE(pageResident(f, idx)) << idx;
    Counter &wasted = stats.counter("ra_wasted");
    ASSERT_EQ(0u, wasted.get());

    // Six read pages cover a six-frame reclaim.
    EXPECT_EQ(6u, bc->reclaimFrames(ctx, 6));
    EXPECT_FALSE(pageResident(f, 0));
    for (uint64_t idx = 64; idx <= 68; ++idx)
        EXPECT_FALSE(pageResident(f, idx)) << idx;
    for (uint64_t idx : unread)
        EXPECT_TRUE(pageResident(f, idx)) << idx;
    EXPECT_EQ(0u, wasted.get());

    // No read page is left: the next reclaim takes unread ones, in the
    // walk's order, and counts each as wasted.
    EXPECT_EQ(2u, bc->reclaimFrames(ctx, 2));
    EXPECT_FALSE(pageResident(f, 1));
    EXPECT_FALSE(pageResident(f, 2));
    EXPECT_TRUE(pageResident(f, 3));
    EXPECT_TRUE(pageResident(f, 4));
    EXPECT_EQ(2u, wasted.get());
}

/** Every EvictionPolicyKind value. */
constexpr EvictionPolicyKind kEveryPolicy[] = {
    EvictionPolicyKind::PaperTiered,
    EvictionPolicyKind::GlobalLru,
    EvictionPolicyKind::TwoQ,
};

TEST_F(EvictionTest, AllPoliciesReclaimUnderExhaustionWithoutLosingDirtyBytes)
{
    int file_no = 0;
    for (EvictionPolicyKind kind : kEveryPolicy) {
        SCOPED_TRACE(static_cast<int>(kind));
        auto bc = makeCache(kind, 4);
        std::string path = "/dirty" + std::to_string(file_no++);
        test::addBytes(fs, path, std::vector<uint8_t>(8 * kPage, 0));
        auto ctx = test::makeBlock(dev);

        CacheFile f;
        openFile(*bc, f, path, true);
        // Dirty the whole arena, then keep writing: every further page
        // forces reclamation of a dirty page (pinPage pages out on
        // NoSpace), which must write it back, not drop it.
        for (uint64_t i = 0; i < 8; ++i)
            dirtyPage(*bc, ctx, f, i, uint8_t(0xA0 + i));
        // The 4-frame arena forced at least 4 dirty evictions.
        EXPECT_LE(f.cache->residentPages(), 4u);

        // Flush what is still cached so the whole file is on the host.
        EXPECT_EQ(Status::Ok, bc->flushDirty(ctx, f));
        int hfd = fs.open(path, hostfs::O_RDONLY_F);
        ASSERT_GE(hfd, 0);
        for (uint64_t i = 0; i < 8; ++i) {
            uint8_t byte = 0;
            fs.pread(hfd, &byte, 1, i * kPage + 7);
            EXPECT_EQ(uint8_t(0xA0 + i), byte) << "page " << i;
        }
        fs.close(hfd);
    }
}

TEST_F(EvictionTest, PinnedPagesSurviveEveryPolicy)
{
    int file_no = 0;
    for (EvictionPolicyKind kind : kEveryPolicy) {
        SCOPED_TRACE(static_cast<int>(kind));
        auto bc = makeCache(kind, 4);
        std::string path = "/pin" + std::to_string(file_no++);
        test::addRamp(fs, path, 4 * kPage);
        auto ctx = test::makeBlock(dev);

        CacheFile f;
        openFile(*bc, f, path, false);
        uint32_t frame;
        FPage *fp;
        ASSERT_EQ(Status::Ok, bc->pinPage(ctx, f, 0, &frame, &fp, false));
        uint8_t expect = bc->arena().data(frame)[0];
        loadPages(*bc, ctx, f, 4);

        bc->reclaimFrames(ctx, 4);
        // The pinned page is untouched; identity and content hold.
        uint32_t frame2;
        FPage *p0 = f.cache->getPage(0);
        ASSERT_TRUE(f.cache->tryPinReady(*p0, 0, &frame2));
        EXPECT_EQ(frame, frame2);
        EXPECT_EQ(expect, bc->arena().data(frame2)[0]);
        f.cache->unpin(*p0);
        f.cache->unpin(*fp);
    }
}

} // namespace
} // namespace core
} // namespace gpufs
