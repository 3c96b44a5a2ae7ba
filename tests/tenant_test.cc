/** @file Serving-tier multi-tenant tests: per-tenant frame quotas
 *  (eviction stays within the faulting tenant's own working set, a
 *  fully-pinned quota surfaces NoSpace instead of stealing frames),
 *  victim-tier quotas, weighted DRR sweep scheduling, and a threaded
 *  two-tenant race (the TSan target for the quota accounting). */

#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "rpc/daemon.hh"
#include "tests/testutil.hh"

namespace gpufs {
namespace core {
namespace {

constexpr uint64_t kPg = 16 * KiB;

GpuFsParams
tenantParams(uint64_t cache_pages)
{
    GpuFsParams p;
    p.pageSize = kPg;
    p.cacheBytes = cache_pages * kPg;
    // Demand-only fetches: quota arithmetic in these tests counts
    // every claimed frame, so speculation would blur the ledgers.
    p.readAheadPages = 0;
    return p;
}

// A tenant that outgrows its frame quota evicts ITS OWN pages (quota
// recycling), never another tenant's residency — the arena's free
// headroom belongs to the tenants that have not spent theirs.
TEST(TenantQuota, EvictionStaysWithinTenantWorkingSet)
{
    GpuFsParams p = tenantParams(64);
    p.tenantFrameQuota[1] = 16;
    GpufsSystem sys(1, p);
    test::addRamp(sys.hostFs(), "/t0", 32 * kPg);
    test::addRamp(sys.hostFs(), "/t1", 32 * kPg);
    auto ctx = test::makeBlock(sys.device(0));

    // Tenant 0 (unlimited) makes its working set resident first.
    int fd0 = sys.fs().gopen(ctx, "/t0", G_RDONLY);
    ASSERT_GE(fd0, 0);
    std::vector<uint8_t> buf(32 * kPg);
    ASSERT_EQ(int64_t(buf.size()),
              sys.fs().gread(ctx, fd0, 0, buf.size(), buf.data()));
    FrameArena &arena = sys.fs().bufferCache().arena();
    const uint32_t t0_resident = arena.tenantPages(0);
    ASSERT_GE(t0_resident, 32u);

    // Tenant 1 scans twice its quota: the read succeeds (its own pages
    // recycle), its residency never exceeds the quota, and tenant 0
    // keeps every page — even though the arena still has free frames
    // tenant 1 is not entitled to fill.
    int fd1 = sys.fs().gopen(ctx, "/t1",
                             G_RDONLY | g_tenant_flags(TenantId(1)));
    ASSERT_GE(fd1, 0);
    ASSERT_EQ(int64_t(buf.size()),
              sys.fs().gread(ctx, fd1, 0, buf.size(), buf.data()));
    for (uint64_t i = 0; i < buf.size(); i += 509)
        ASSERT_EQ(test::rampByte(i), buf[i]) << i;
    EXPECT_LE(arena.tenantPages(1), 16u);
    EXPECT_GT(arena.tenantPages(1), 0u);
    EXPECT_EQ(t0_resident, arena.tenantPages(0));

    sys.fs().gclose(ctx, fd1);
    sys.fs().gclose(ctx, fd0);
}

// With every quota frame pinned, a further fault has nothing of its
// own to evict — the claim surfaces NoSpace (the caller's retry
// point), and no other tenant's resident page is taken instead.
TEST(TenantQuota, PinnedQuotaSurfacesNoSpaceNotCrossTenantEviction)
{
    GpuFsParams p = tenantParams(64);
    p.tenantFrameQuota[1] = 4;
    GpufsSystem sys(1, p);
    test::addRamp(sys.hostFs(), "/t0", 16 * kPg);
    test::addRamp(sys.hostFs(), "/t1", 16 * kPg);
    auto ctx = test::makeBlock(sys.device(0));

    int fd0 = sys.fs().gopen(ctx, "/t0", G_RDONLY);
    ASSERT_GE(fd0, 0);
    std::vector<uint8_t> buf(16 * kPg);
    ASSERT_EQ(int64_t(buf.size()),
              sys.fs().gread(ctx, fd0, 0, buf.size(), buf.data()));
    FrameArena &arena = sys.fs().bufferCache().arena();
    const uint32_t t0_resident = arena.tenantPages(0);

    // Pin tenant 1's whole quota with gmmap (pages stay pinned until
    // gmunmap).
    int fd1 = sys.fs().gopen(ctx, "/t1",
                             G_RDONLY | g_tenant_flags(TenantId(1)));
    ASSERT_GE(fd1, 0);
    void *maps[4];
    for (unsigned i = 0; i < 4; ++i) {
        uint64_t mapped = 0;
        maps[i] = sys.fs().gmmap(ctx, fd1, uint64_t(i) * kPg, kPg,
                                 &mapped);
        ASSERT_NE(nullptr, maps[i]) << i;
        ASSERT_EQ(kPg, mapped) << i;
    }
    ASSERT_TRUE(arena.tenantAtQuota(TenantId(1)));

    // The fifth page cannot claim: quota reached, nothing evictable.
    std::vector<uint8_t> page(kPg);
    int64_t rc = sys.fs().gread(ctx, fd1, 8 * kPg, kPg, page.data());
    ASSERT_LT(rc, 0);
    EXPECT_EQ(Status::NoSpace, gstatus_of(rc));
    EXPECT_EQ(t0_resident, arena.tenantPages(0));

    // Releasing a pin heals the path — retry-after-NoSpace works.
    ASSERT_EQ(Status::Ok, sys.fs().gmunmap(ctx, maps[0]));
    rc = sys.fs().gread(ctx, fd1, 8 * kPg, kPg, page.data());
    ASSERT_EQ(int64_t(kPg), rc);
    for (uint64_t i = 0; i < kPg; i += 509)
        ASSERT_EQ(test::rampByte(8 * kPg + i), page[i]) << i;

    for (unsigned i = 1; i < 4; ++i)
        ASSERT_EQ(Status::Ok, sys.fs().gmunmap(ctx, maps[i]));
    sys.fs().gclose(ctx, fd1);
    sys.fs().gclose(ctx, fd0);
}

// Victim-tier quota: demotions are charged to the tenant stamped on
// the evicted frame, and a tenant's victim footprint self-recycles at
// its quota instead of squeezing other tenants out of host RAM.
TEST(TenantQuota, VictimTierChargesAndCapsTheDemotingTenant)
{
    GpuFsParams p = tenantParams(16);
    p.victimCachePages = 64;
    p.tenantVictimQuota[1] = 8;
    GpufsSystem sys(1, p);
    test::addRamp(sys.hostFs(), "/t1", 48 * kPg);
    auto ctx = test::makeBlock(sys.device(0));

    // Tenant 1 streams 3x the arena: evictions demote clean pages into
    // the victim tier, bounded by the tenant's victim quota.
    int fd1 = sys.fs().gopen(ctx, "/t1",
                             G_RDONLY | g_tenant_flags(TenantId(1)));
    ASSERT_GE(fd1, 0);
    std::vector<uint8_t> buf(48 * kPg);
    ASSERT_EQ(int64_t(buf.size()),
              sys.fs().gread(ctx, fd1, 0, buf.size(), buf.data()));
    ASSERT_NE(nullptr, sys.victimCache());
    EXPECT_GT(sys.victimCache()->tenantPages(TenantId(1)), 0u);
    EXPECT_LE(sys.victimCache()->tenantPages(TenantId(1)), 8u);
    EXPECT_EQ(0u, sys.victimCache()->tenantPages(TenantId(0)));
    sys.fs().gclose(ctx, fd1);
}

// Weighted DRR sweep scheduling: when one sweep holds a scan tenant's
// 16-page batch and a point tenant's single-page lookup, the point
// lookup is emitted (and reserves the serialized host I/O timeline)
// FIRST — despite the scan's earlier issue time. Without weights the
// sweep stays issue-time FIFO and the scan goes first.
TEST(TenantDrr, PointLookupOutrunsScanBatchOnlyWithWeights)
{
    auto run = [](bool weighted) {
        sim::SimContext sim;
        hostfs::HostFs fs{sim};
        consistency::ConsistencyMgr mgr;
        gpu::GpuDevice dev{sim, 0};
        rpc::CpuDaemon daemon{fs, mgr};
        rpc::RpcQueue &q = daemon.attachGpu(dev);
        if (weighted) {
            unsigned w[kMaxTenants] = {1, 1, 0, 0};
            daemon.setTenantWeights(w, kMaxTenants);
        }
        test::addRamp(fs, "/scan", 16 * kPg);
        test::addRamp(fs, "/point", 16 * kPg);
        int sfd = fs.open("/scan", hostfs::O_RDONLY_F);
        int pfd = fs.open("/point", hostfs::O_RDONLY_F);
        EXPECT_GE(sfd, 0);
        EXPECT_GE(pfd, 0);

        // Both submitted before start: they land in ONE sweep. The
        // scan (tenant 0) has the EARLIER issue time.
        std::vector<std::vector<uint8_t>> sp(
            16, std::vector<uint8_t>(kPg));
        rpc::RpcRequest rs;
        rs.op = rpc::RpcOp::ReadPages;
        rs.tenant = 0;
        rs.hostFd = sfd;
        rs.offset = 0;
        rs.len = 16 * kPg;
        rs.pageLen = kPg;
        rs.pageCount = 16;
        rs.issueTime = 0;
        for (unsigned i = 0; i < 16; ++i)
            rs.batch[i] = sp[i].data();
        rpc::RpcSlot *scan = q.trySubmit(rs);
        EXPECT_NE(nullptr, scan);

        std::vector<uint8_t> pp(kPg);
        rpc::RpcRequest rp;
        rp.op = rpc::RpcOp::ReadPages;
        rp.tenant = 1;
        rp.hostFd = pfd;
        rp.offset = 0;
        rp.len = kPg;
        rp.pageLen = kPg;
        rp.pageCount = 1;
        rp.issueTime = 5;
        rp.batch[0] = pp.data();
        rpc::RpcSlot *point = q.trySubmit(rp);
        EXPECT_NE(nullptr, point);

        daemon.start();
        rpc::RpcResponse s_resp = q.collect(*scan);
        rpc::RpcResponse p_resp = q.collect(*point);
        EXPECT_EQ(Status::Ok, s_resp.status);
        EXPECT_EQ(Status::Ok, p_resp.status);
        EXPECT_EQ(1u, daemon.stats().counter("tenant1_rpcs").get());
        daemon.stop();
        fs.close(sfd);
        fs.close(pfd);
        return std::make_pair(s_resp.done, p_resp.done);
    };

    auto fifo = run(false);
    EXPECT_LT(fifo.first, fifo.second)
        << "FIFO control: earlier-issued scan must finish first";
    auto drr = run(true);
    EXPECT_LT(drr.second, drr.first)
        << "DRR: the point lookup must be emitted ahead of the scan";
}

// The TSan target: two tenants fault and evict concurrently under
// quotas. The per-tenant ledgers must stay consistent (no lost or
// double charges) and every read must return correct bytes.
TEST(TenantQuota, ConcurrentTwoTenantChurnKeepsLedgersConsistent)
{
    GpuFsParams p = tenantParams(48);
    p.tenantFrameQuota[1] = 16;
    p.tenantFrameQuota[2] = 16;
    GpufsSystem sys(1, p);
    test::addRamp(sys.hostFs(), "/t1", 24 * kPg);
    test::addRamp(sys.hostFs(), "/t2", 24 * kPg);

    auto churn = [&](unsigned block_id, TenantId tenant,
                     const char *path) {
        auto ctx = test::makeBlock(sys.device(0), block_id);
        int fd = sys.fs().gopen(ctx, path,
                                G_RDONLY | g_tenant_flags(tenant));
        ASSERT_GE(fd, 0);
        std::vector<uint8_t> page(kPg);
        for (unsigned pass = 0; pass < 3; ++pass) {
            for (uint64_t pg = 0; pg < 24; ++pg) {
                int64_t rc = sys.fs().gread(ctx, fd, pg * kPg, kPg,
                                            page.data());
                ASSERT_EQ(int64_t(kPg), rc)
                    << path << " pass " << pass << " page " << pg;
                for (uint64_t i = 0; i < kPg; i += 1021) {
                    ASSERT_EQ(test::rampByte(pg * kPg + i), page[i])
                        << path << " page " << pg;
                }
            }
        }
        sys.fs().gclose(ctx, fd);
    };

    std::thread a(churn, 0, TenantId(1), "/t1");
    std::thread b(churn, 1, TenantId(2), "/t2");
    a.join();
    b.join();

    FrameArena &arena = sys.fs().bufferCache().arena();
    EXPECT_LE(arena.tenantPages(1), 16u);
    EXPECT_LE(arena.tenantPages(2), 16u);
    EXPECT_EQ(0u, arena.tenantPages(3));
}

} // namespace
} // namespace core
} // namespace gpufs
