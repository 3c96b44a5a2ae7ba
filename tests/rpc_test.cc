/** @file Unit tests for the GPU-CPU RPC layer. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <thread>
#include <vector>

#include "consistency/consistency.hh"
#include "gpu/device.hh"
#include "gpufs/victim.hh"
#include "hostfs/hostfs.hh"
#include "rpc/daemon.hh"
#include "tests/testutil.hh"

namespace gpufs {
namespace rpc {
namespace {

class RpcTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        queue = &daemon.attachGpu(dev);
        daemon.start();
    }

    void TearDown() override { daemon.stop(); }

    sim::SimContext sim;
    hostfs::HostFs fs{sim};
    consistency::ConsistencyMgr mgr;
    gpu::GpuDevice dev{sim, 0};
    rpc::CpuDaemon daemon{fs, mgr};
    RpcQueue *queue = nullptr;

    RpcResponse
    openFile(const std::string &path, uint32_t flags, bool write = false)
    {
        RpcRequest req;
        req.op = RpcOp::Open;
        std::strncpy(req.path, path.c_str(), kMaxPath - 1);
        req.flags = flags;
        req.wantsWrite = write;
        return queue->call(req);
    }
};

TEST_F(RpcTest, NopRoundtrip)
{
    RpcRequest req;
    req.op = RpcOp::Nop;
    req.issueTime = 1000;
    RpcResponse resp = queue->call(req);
    EXPECT_EQ(Status::Ok, resp.status);
    // Completion covers submit latency + daemon handling.
    EXPECT_GE(resp.done,
              1000 + sim.params.rpcSubmitLat + sim.params.rpcCpuOverhead);
}

TEST_F(RpcTest, OpenReturnsMetadata)
{
    test::addRamp(fs, "/f", 12345);
    RpcResponse resp = openFile("/f", hostfs::O_RDONLY_F);
    EXPECT_EQ(Status::Ok, resp.status);
    EXPECT_GE(resp.hostFd, 0);
    EXPECT_EQ(12345u, resp.size);
    EXPECT_GT(resp.ino, 0u);

    RpcRequest creq;
    creq.op = RpcOp::Close;
    creq.hostFd = resp.hostFd;
    EXPECT_EQ(Status::Ok, queue->call(creq).status);
    EXPECT_EQ(0u, fs.openCount());
}

TEST_F(RpcTest, OpenMissingFails)
{
    RpcResponse resp = openFile("/missing", hostfs::O_RDONLY_F);
    EXPECT_EQ(Status::NoEnt, resp.status);
}

TEST_F(RpcTest, ReadPageMovesBytesAndChargesPcie)
{
    test::addRamp(fs, "/f", 256 * KiB);
    RpcResponse open = openFile("/f", hostfs::O_RDONLY_F);

    std::vector<uint8_t> page(64 * KiB);
    RpcRequest req;
    req.op = RpcOp::ReadPage;
    req.hostFd = open.hostFd;
    req.offset = 64 * KiB;
    req.len = page.size();
    req.data = page.data();
    req.issueTime = 0;
    RpcResponse resp = queue->call(req);
    ASSERT_EQ(Status::Ok, resp.status);
    EXPECT_EQ(page.size(), resp.bytes);
    for (unsigned i = 0; i < 64; ++i)
        EXPECT_EQ(test::rampByte(64 * KiB + i), page[i]);
    // PCIe DMA must appear in the completion time.
    EXPECT_GE(resp.done,
              transferTime(page.size(), sim.params.pcieBwH2DMBps));
    EXPECT_EQ(page.size(),
              daemon.stats().counter("bytes_to_gpu").get());
}

TEST_F(RpcTest, ReadPageClampsAtEof)
{
    test::addRamp(fs, "/small", 1000);
    RpcResponse open = openFile("/small", hostfs::O_RDONLY_F);
    std::vector<uint8_t> page(4096);
    RpcRequest req;
    req.op = RpcOp::ReadPage;
    req.hostFd = open.hostFd;
    req.offset = 0;
    req.len = page.size();
    req.data = page.data();
    RpcResponse resp = queue->call(req);
    EXPECT_EQ(1000u, resp.bytes);
}

TEST_F(RpcTest, ReadPagesScattersOneExtentIntoManyBuffers)
{
    test::addRamp(fs, "/b", 256 * KiB);
    hostfs::FileInfo binfo;
    ASSERT_EQ(Status::Ok, fs.stat("/b", &binfo));
    fs.cache().prefault(binfo.ino, 0, 256 * KiB);   // warm: no disk term
    RpcResponse open = openFile("/b", hostfs::O_RDONLY_F);

    constexpr uint64_t kPage = 16 * KiB;
    constexpr unsigned kPages = 4;
    std::vector<std::vector<uint8_t>> pages(
        kPages, std::vector<uint8_t>(kPage, 0));
    RpcRequest req;
    req.op = RpcOp::ReadPages;
    req.hostFd = open.hostFd;
    req.offset = 2 * kPage;
    req.len = kPages * kPage;
    req.pageLen = kPage;
    req.pageCount = kPages;
    for (unsigned i = 0; i < kPages; ++i)
        req.batch[i] = pages[i].data();
    RpcResponse resp = queue->call(req);
    ASSERT_EQ(Status::Ok, resp.status);
    EXPECT_EQ(kPages * kPage, resp.bytes);
    for (unsigned i = 0; i < kPages; ++i) {
        for (uint64_t off = 0; off < kPage; off += 997) {
            ASSERT_EQ(test::rampByte(2 * kPage + i * kPage + off),
                      pages[i][off]) << "page " << i;
        }
    }
    // One DMA for the whole batch: a single dmaSetup, not one per page.
    Time one_dma = sim.params.dmaSetup
        + transferTime(kPages * kPage, sim.params.pcieBwH2DMBps);
    Time per_page_dma = kPages * sim.params.dmaSetup
        + transferTime(kPages * kPage, sim.params.pcieBwH2DMBps);
    EXPECT_GE(resp.done, one_dma);
    EXPECT_LT(resp.done,
              per_page_dma + sim.params.rpcSubmitLat
                  + 2 * sim.params.rpcCpuOverhead
                  + sim.params.preadOverhead
                  + transferTime(kPages * kPage,
                                 sim.params.hostCacheReadMBps));
    EXPECT_EQ(kPages * kPage,
              daemon.stats().counter("bytes_to_gpu").get());
}

TEST_F(RpcTest, ReadPagesClampsAtEofAndRejectsOversizedBatch)
{
    test::addRamp(fs, "/short", 20 * KiB);
    RpcResponse open = openFile("/short", hostfs::O_RDONLY_F);
    constexpr uint64_t kPage = 16 * KiB;
    std::vector<uint8_t> a(kPage, 0xEE), b(kPage, 0xEE);
    RpcRequest req;
    req.op = RpcOp::ReadPages;
    req.hostFd = open.hostFd;
    req.offset = 0;
    req.len = 2 * kPage;
    req.pageLen = kPage;
    req.pageCount = 2;
    req.batch[0] = a.data();
    req.batch[1] = b.data();
    RpcResponse resp = queue->call(req);
    ASSERT_EQ(Status::Ok, resp.status);
    EXPECT_EQ(20 * KiB, resp.bytes);    // clamped at EOF
    EXPECT_EQ(test::rampByte(kPage), b[0]);
    EXPECT_EQ(0xEE, b[4 * KiB]);        // past EOF: untouched

    req.pageCount = kMaxBatchPages + 1;
    EXPECT_EQ(Status::Inval, queue->call(req).status);
}

TEST_F(RpcTest, WriteBackFullExtent)
{
    test::addRamp(fs, "/w", 4096);
    RpcResponse open = openFile("/w", hostfs::O_RDWR_F, true);
    std::vector<uint8_t> page(4096, 0xCD);
    RpcRequest req;
    req.op = RpcOp::WritePages;
    req.hostFd = open.hostFd;
    req.pageCount = 1;
    req.batch[0] = page.data();
    req.batchOff[0] = 0;
    req.batchLen[0] = uint32_t(page.size());
    req.len = page.size();
    RpcResponse resp = queue->call(req);
    ASSERT_EQ(Status::Ok, resp.status);
    EXPECT_EQ(4096u, resp.bytes);

    int fd = fs.open("/w", hostfs::O_RDONLY_F);
    uint8_t b;
    fs.pread(fd, &b, 1, 100);
    EXPECT_EQ(0xCD, b);
    fs.close(fd);
}

TEST_F(RpcTest, DiffAgainstZerosPreservesOtherWritersBytes)
{
    // Host file already contains 0xAA everywhere (another writer's
    // data); our page is zero except a small run. Only the run may
    // land (O_GWRONCE merge, §3.1).
    test::addBytes(fs, "/m", std::vector<uint8_t>(4096, 0xAA));
    RpcResponse open = openFile("/m", hostfs::O_RDWR_F, true);
    std::vector<uint8_t> page(4096, 0);
    for (int i = 100; i < 200; ++i)
        page[i] = 0x55;
    RpcRequest req;
    req.op = RpcOp::WritePages;
    req.hostFd = open.hostFd;
    req.pageCount = 1;
    req.batch[0] = page.data();
    req.batchOff[0] = 0;
    req.batchLen[0] = uint32_t(page.size());
    req.len = page.size();
    req.diffAgainstZeros = true;
    RpcResponse resp = queue->call(req);
    ASSERT_EQ(Status::Ok, resp.status);
    EXPECT_EQ(100u, resp.bytes);    // only the non-zero run moved

    int fd = fs.open("/m", hostfs::O_RDONLY_F);
    std::vector<uint8_t> check(4096);
    fs.pread(fd, check.data(), check.size(), 0);
    EXPECT_EQ(0xAA, check[99]);
    EXPECT_EQ(0x55, check[100]);
    EXPECT_EQ(0x55, check[199]);
    EXPECT_EQ(0xAA, check[200]);
    fs.close(fd);
}

TEST_F(RpcTest, GwronceWriteBackIsOneGatheredWrite)
{
    // Two non-zero runs in one O_GWRONCE page must land as a single
    // gathered pwritev: one version bump and one syscall charge — not
    // per-run version churn or per-run pwrite overhead.
    test::addBytes(fs, "/g", std::vector<uint8_t>(4096, 0));
    RpcResponse open = openFile("/g", hostfs::O_RDWR_F, true);
    hostfs::FileInfo before;
    ASSERT_EQ(Status::Ok, fs.stat("/g", &before));

    std::vector<uint8_t> page(4096, 0);
    for (int i = 100; i < 200; ++i)
        page[i] = 0x11;
    for (int i = 1000; i < 1100; ++i)
        page[i] = 0x22;
    RpcRequest req;
    req.op = RpcOp::WritePages;
    req.hostFd = open.hostFd;
    req.pageCount = 1;
    req.batch[0] = page.data();
    req.batchOff[0] = 0;
    req.batchLen[0] = uint32_t(page.size());
    req.len = page.size();
    req.diffAgainstZeros = true;
    req.issueTime = 0;
    RpcResponse resp = queue->call(req);
    ASSERT_EQ(Status::Ok, resp.status);
    EXPECT_EQ(200u, resp.bytes);

    // Regression: exactly ONE version step for the gathered write.
    hostfs::FileInfo after;
    ASSERT_EQ(Status::Ok, fs.stat("/g", &after));
    EXPECT_EQ(before.version + 1, after.version);

    // Regression: completion charges exactly one pwrite syscall
    // overhead for both runs (open's cpuIo slot precedes ours).
    Time t0 = sim.params.rpcSubmitLat + 2 * sim.params.rpcCpuOverhead;
    Time dma = sim.params.dmaSetup
        + transferTime(page.size(), sim.params.pcieBwD2HMBps);
    Time copy = sim.params.preadOverhead
        + transferTime(200, sim.params.hostCacheWriteMBps);
    EXPECT_EQ(t0 + dma + copy, resp.done);

    // Both runs landed; the zero gap between them stayed untouched.
    int fd = fs.open("/g", hostfs::O_RDONLY_F);
    std::vector<uint8_t> check(4096);
    fs.pread(fd, check.data(), check.size(), 0);
    EXPECT_EQ(0x11, check[150]);
    EXPECT_EQ(0x22, check[1050]);
    EXPECT_EQ(0x00, check[500]);
    fs.close(fd);
}

TEST_F(RpcTest, StatAndUnlink)
{
    test::addRamp(fs, "/s", 777);
    RpcRequest req;
    req.op = RpcOp::Stat;
    std::strncpy(req.path, "/s", kMaxPath - 1);
    RpcResponse resp = queue->call(req);
    EXPECT_EQ(Status::Ok, resp.status);
    EXPECT_EQ(777u, resp.size);

    req.op = RpcOp::Unlink;
    EXPECT_EQ(Status::Ok, queue->call(req).status);
    req.op = RpcOp::Stat;
    EXPECT_EQ(Status::NoEnt, queue->call(req).status);
}

TEST_F(RpcTest, ConsistencyClaimsFollowOpenClose)
{
    test::addRamp(fs, "/c", 10);
    RpcResponse a = openFile("/c", hostfs::O_RDWR_F, true);
    ASSERT_EQ(Status::Ok, a.status);
    EXPECT_EQ(1u, mgr.writerCount(a.ino));
    RpcRequest creq;
    creq.op = RpcOp::Close;
    creq.hostFd = a.hostFd;
    queue->call(creq);
    EXPECT_EQ(0u, mgr.writerCount(a.ino));
}

TEST_F(RpcTest, ManyConcurrentCallersAllServed)
{
    test::addRamp(fs, "/p", 1 * MiB);
    RpcResponse open = openFile("/p", hostfs::O_RDONLY_F);
    constexpr int kThreads = 16, kCalls = 200;
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            std::vector<uint8_t> buf(4096);
            for (int i = 0; i < kCalls; ++i) {
                RpcRequest req;
                req.op = RpcOp::ReadPage;
                req.hostFd = open.hostFd;
                req.offset = ((t * kCalls + i) * 4096ull) % (1 * MiB);
                req.len = buf.size();
                req.data = buf.data();
                RpcResponse resp = queue->call(req);
                if (resp.status != Status::Ok || resp.bytes != buf.size())
                    failures.fetch_add(1);
                if (buf[0] != test::rampByte(req.offset))
                    failures.fetch_add(1);
            }
        });
    }
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(0, failures.load());
    EXPECT_GE(daemon.stats().counter("requests_served").get(),
              uint64_t(kThreads) * kCalls);
}

TEST_F(RpcTest, PipelinedRequestsOverlapDiskAndDma)
{
    // Two reads issued at t=0: the second's host I/O should overlap
    // the first's DMA, so total < strict serial sum.
    test::addRamp(fs, "/o", 8 * MiB);
    fs.cache().prefault(1, 0, 8 * MiB);   // warm (ino 1: first file)
    RpcResponse open = openFile("/o", hostfs::O_RDONLY_F);
    std::vector<uint8_t> a(4 * MiB), b(4 * MiB);

    RpcResponse ra, rb;
    std::thread t1([&] {
        RpcRequest req;
        req.op = RpcOp::ReadPage;
        req.hostFd = open.hostFd;
        req.offset = 0;
        req.len = a.size();
        req.data = a.data();
        req.issueTime = 0;
        ra = queue->call(req);
    });
    std::thread t2([&] {
        RpcRequest req;
        req.op = RpcOp::ReadPage;
        req.hostFd = open.hostFd;
        req.offset = 4 * MiB;
        req.len = b.size();
        req.data = b.data();
        req.issueTime = 0;
        rb = queue->call(req);
    });
    t1.join();
    t2.join();
    Time io = transferTime(4 * MiB, sim.params.hostCacheReadMBps);
    Time dma = transferTime(4 * MiB, sim.params.pcieBwH2DMBps);
    Time serial_sum = 2 * (io + dma);
    EXPECT_LT(std::max(ra.done, rb.done), serial_sum);
}

TEST(DoorbellCoalescing, BurstRingsOnceThenQuietEdgeRingsAgain)
{
    // Standalone queue, no daemon: the test IS the daemon side, so the
    // ring/suppress edges are deterministic.
    std::atomic<uint64_t> doorbell{0};
    RpcQueue q(doorbell);
    RpcRequest req;
    req.op = RpcOp::Nop;

    RpcSlot *held[8];
    for (int i = 0; i < 8; ++i) {
        held[i] = q.trySubmit(req);
        ASSERT_NE(nullptr, held[i]);
    }
    // One quiet->busy edge: the burst rang once, seven rings elided.
    EXPECT_EQ(1u, doorbell.load());
    EXPECT_EQ(7u, q.doorbellRingsSuppressed());

    // The whole burst arrives as ONE sweep (aggregation's feedstock).
    RpcSlot *batch[kQueueSlots];
    unsigned n = q.pollAll(batch, kQueueSlots);
    EXPECT_EQ(8u, n);
    RpcResponse resp;
    resp.status = Status::Ok;
    for (unsigned i = 0; i < n; ++i)
        RpcQueue::complete(*batch[i], resp);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(Status::Ok, q.collect(*held[i]).status);

    // Quiet again: the next submit is a new busy edge and must ring —
    // suppression never strands a request behind a parked daemon.
    RpcSlot *s = q.trySubmit(req);
    ASSERT_NE(nullptr, s);
    EXPECT_EQ(2u, doorbell.load());
    EXPECT_EQ(7u, q.doorbellRingsSuppressed());
    ASSERT_EQ(1u, q.pollAll(batch, kQueueSlots));
    RpcQueue::complete(*batch[0], resp);
    EXPECT_EQ(Status::Ok, q.collect(*s).status);
}

TEST(RpcAggregation, CrossSlotReadPagesShareOneHostRead)
{
    sim::SimContext sim;
    hostfs::HostFs fs{sim};
    consistency::ConsistencyMgr mgr;
    gpu::GpuDevice dev{sim, 0};
    CpuDaemon daemon{fs, mgr};
    RpcQueue &q = daemon.attachGpu(dev);

    constexpr uint64_t kPage = 16 * KiB;
    test::addRamp(fs, "/agg", 16 * kPage);
    int host_fd = fs.open("/agg", hostfs::O_RDONLY_F);
    ASSERT_GE(host_fd, 0);

    // Four concurrent prefetch batches from different slots on the
    // same file, submitted split-phase BEFORE the daemon starts: they
    // all land in its first pollAll sweep — the aggregation window.
    // The last batch straddles EOF to pin per-member byte fan-out.
    constexpr unsigned kReqs = 4, kPagesEach = 2;
    const uint64_t offsets[kReqs] = {0, 4 * kPage, 8 * kPage, 15 * kPage};
    std::vector<std::vector<uint8_t>> pages(
        kReqs * kPagesEach, std::vector<uint8_t>(kPage, 0xEE));
    RpcSlot *held[kReqs];
    for (unsigned r = 0; r < kReqs; ++r) {
        RpcRequest req;
        req.op = RpcOp::ReadPages;
        req.hostFd = host_fd;
        req.offset = offsets[r];
        req.len = kPagesEach * kPage;
        req.pageLen = kPage;
        req.pageCount = kPagesEach;
        req.issueTime = 10 * r;
        for (unsigned i = 0; i < kPagesEach; ++i)
            req.batch[i] = pages[r * kPagesEach + i].data();
        held[r] = q.trySubmit(req);
        ASSERT_NE(nullptr, held[r]);
    }
    daemon.start();
    for (unsigned r = 0; r < kReqs; ++r) {
        RpcResponse resp = q.collect(*held[r]);
        ASSERT_EQ(Status::Ok, resp.status);
        // Per-member completion: full batches get all their bytes, the
        // EOF straddler exactly the one resident page.
        uint64_t expect = r == 3 ? kPage : kPagesEach * kPage;
        EXPECT_EQ(expect, resp.bytes) << "req " << r;
    }
    for (unsigned r = 0; r < kReqs; ++r) {
        for (unsigned i = 0; i < kPagesEach; ++i) {
            if (offsets[r] + i * kPage >= 16 * kPage) {
                EXPECT_EQ(0xEE, pages[r * kPagesEach + i][0]);  // past EOF
                continue;
            }
            for (uint64_t off = 0; off < kPage; off += 1021) {
                ASSERT_EQ(test::rampByte(offsets[r] + i * kPage + off),
                          pages[r * kPagesEach + i][off])
                    << "req " << r << " page " << i;
            }
        }
    }

    // The four RPCs rode ONE gathered host read: three coalesced away.
    EXPECT_EQ(uint64_t(kReqs) - 1,
              daemon.stats().counter("coalesced_rpcs").get());
    EXPECT_EQ(1u, daemon.stats().counter("host_read_calls").get());
    EXPECT_EQ(uint64_t(kReqs),
              daemon.stats().counter("requests_served").get());
    daemon.stop();
    fs.close(host_fd);
}

// ---------------------------------------------------------------------
// One page-service path: every page tries owner peer -> victim tier ->
// storage, and all storage-bound pages of a call go out as ONE read.
// ---------------------------------------------------------------------

class PageServiceTest : public ::testing::Test
{
  protected:
    static constexpr uint64_t kPage = 16 * KiB;
    static constexpr unsigned kFilePages = 16;

    PageServiceTest()
    {
        q0 = &daemon.attachGpu(dev0);
        daemon.attachGpu(dev1);
        test::addRamp(fs, "/ps", kFilePages * kPage);
        EXPECT_EQ(Status::Ok, fs.stat("/ps", &info));
        hostFd = fs.open("/ps", hostfs::O_RDONLY_F);
        for (auto &p : pages)
            p.assign(kPage, 0xEE);
    }

    ~PageServiceTest() override
    {
        daemon.stop();
        fs.close(hostFd);
    }

    /** Stage file page @p pg in the victim tier at the current version
     *  (installs the tier; call before start()). */
    void
    stage(uint64_t pg)
    {
        daemon.setVictimCache(&vc);
        std::vector<uint8_t> bytes(kPage);
        for (uint64_t i = 0; i < kPage; ++i)
            bytes[i] = test::rampByte(pg * kPage + i);
        vc.insert(info.ino, pg, info.version, bytes.data(), kPage, 0);
    }

    /** @p n pages from file page @p first into pages[slot...]. */
    RpcRequest
    readPages(uint64_t first, unsigned n, unsigned slot)
    {
        RpcRequest req;
        req.op = RpcOp::ReadPages;
        req.hostFd = hostFd;
        req.offset = first * kPage;
        req.len = n * kPage;
        req.pageLen = kPage;
        req.pageCount = n;
        for (unsigned i = 0; i < n; ++i)
            req.batch[i] = pages[slot + i].data();
        return req;
    }

    /** pages[slot...] hold file pages [first, first + n) exactly. */
    void
    expectRamp(uint64_t first, unsigned n, unsigned slot)
    {
        for (unsigned i = 0; i < n; ++i) {
            for (uint64_t off = 0; off < kPage; off += 1021) {
                ASSERT_EQ(test::rampByte((first + i) * kPage + off),
                          pages[slot + i][off])
                    << "page " << first + i;
            }
        }
    }

    uint64_t
    stat(const char *name)
    {
        return daemon.stats().counter(name).get();
    }

    sim::SimContext sim;
    hostfs::HostFs fs{sim};
    consistency::ConsistencyMgr mgr;
    gpu::GpuDevice dev0{sim, 0};
    gpu::GpuDevice dev1{sim, 1};
    CpuDaemon daemon{fs, mgr};
    core::VictimCache vc{kFilePages, kPage, daemon.stats()};
    hostfs::FileInfo info{};
    int hostFd = -1;
    RpcQueue *q0 = nullptr;
    std::vector<uint8_t> pages[8];
};

// Tier hits at pages 1 and 3 of a 5-page ReadPages leave three miss
// runs, which go out as ONE gathered storage read.
TEST_F(PageServiceTest, ReadPagesVictimGapsShareOneStorageRead)
{
    stage(1);
    stage(3);
    daemon.start();
    RpcResponse resp = q0->call(readPages(0, 5, 0));
    ASSERT_EQ(Status::Ok, resp.status);
    EXPECT_EQ(5 * kPage, resp.bytes);
    expectRamp(0, 5, 0);
    EXPECT_EQ(2u, stat("vc_hits"));
    EXPECT_EQ(1u, stat("storage_reads"));
    EXPECT_EQ(1u, stat("host_read_calls"));
}

// A sweep group member the tier half covers is probed: its staged page
// comes from host RAM, the rest rides the group's one storage read.
TEST_F(PageServiceTest, GroupMemberHalfCoveredServesFromVictimTier)
{
    stage(4);
    // Both slots land in the daemon's first sweep: one same-file group.
    RpcSlot *a = q0->trySubmit(readPages(0, 2, 0));
    RpcSlot *b = q0->trySubmit(readPages(4, 2, 2));
    ASSERT_NE(nullptr, a);
    ASSERT_NE(nullptr, b);
    daemon.start();
    RpcResponse ra = q0->collect(*a);
    RpcResponse rb = q0->collect(*b);
    ASSERT_EQ(Status::Ok, ra.status);
    ASSERT_EQ(Status::Ok, rb.status);
    EXPECT_EQ(2 * kPage, ra.bytes);
    EXPECT_EQ(2 * kPage, rb.bytes);
    expectRamp(0, 2, 0);
    expectRamp(4, 2, 2);
    EXPECT_EQ(1u, stat("vc_hits"));
    EXPECT_EQ(1u, stat("coalesced_rpcs"));
    EXPECT_EQ(1u, stat("storage_reads"));
}

/** An owner GPU that holds exactly the listed pages of the file. */
class FixedPeerSource : public PeerPageSource
{
  public:
    FixedPeerSource(std::vector<uint64_t> held, uint64_t page)
        : held_(std::move(held)), page_(page) {}

    PeerCopy
    peerCopyPage(uint64_t, uint64_t page_idx, uint64_t, uint8_t *dst,
                 uint32_t *valid_out, Time *) override
    {
        if (std::find(held_.begin(), held_.end(), page_idx) == held_.end())
            return PeerCopy::Cold;
        for (uint64_t i = 0; i < page_; ++i)
            dst[i] = test::rampByte(page_idx * page_ + i);
        *valid_out = static_cast<uint32_t>(page_);
        return PeerCopy::Served;
    }
    bool
    peerMirrorExtent(uint64_t, uint64_t, uint64_t, uint32_t,
                     const uint8_t *, uint32_t) override
    {
        return false;
    }
    void peerPublishVersion(uint64_t, uint64_t, uint64_t) override {}

  private:
    std::vector<uint64_t> held_;
    uint64_t page_;
};

// The owner serves pages 1 and 3 of 5; the host fallback's three gaps
// go out as ONE gathered storage read.
TEST_F(PageServiceTest, PeerFallbackGapsShareOneStorageRead)
{
    FixedPeerSource owner({1, 3}, kPage);
    daemon.setPeerSource(1, &owner);
    daemon.start();
    RpcRequest req = readPages(0, 5, 0);
    req.op = RpcOp::PeerReadPages;
    req.gpuId = 0;
    req.peerGpu = 1;
    req.ino = info.ino;
    req.version = info.version;
    RpcResponse resp = q0->call(req);
    ASSERT_EQ(Status::Ok, resp.status);
    EXPECT_EQ(5 * kPage, resp.bytes);
    EXPECT_EQ(2u, resp.peerPages);
    expectRamp(0, 5, 0);
    EXPECT_EQ(3u, stat("peer_pages_host_fallback"));
    EXPECT_EQ(3u, stat("peer_fallback_cold"));
    EXPECT_EQ(1u, stat("storage_reads"));
    daemon.setPeerSource(1, nullptr);
}

// P2P batches land page by page: a page the owner serves is in GPU
// memory once the DMA has moved the bytes through it, the last one at
// the response's done. With idle timelines and the request issued at
// 0, the DMA starts when the daemon's CPU slot ends.
class PeerArrivalTest : public PageServiceTest
{
  protected:
    /** When a P2P DMA of the first @p pages served pages is done. */
    Time
    landed(unsigned pages) const
    {
        const auto &hp = sim.params;
        return hp.rpcSubmitLat + hp.rpcCpuOverhead + hp.p2pDmaSetup +
            transferTime(pages * kPage, hp.pcieP2PBwMBps);
    }

    /** A PeerReadPages of file pages [0, n) from an owner holding
     *  @p held. */
    RpcResponse
    peerRead(unsigned n, std::vector<uint64_t> held)
    {
        FixedPeerSource owner(std::move(held), kPage);
        daemon.setPeerSource(1, &owner);
        daemon.start();
        RpcRequest req = readPages(0, n, 0);
        req.op = RpcOp::PeerReadPages;
        req.gpuId = 0;
        req.peerGpu = 1;
        req.ino = info.ino;
        req.version = info.version;
        RpcResponse resp = q0->call(req);
        daemon.setPeerSource(1, nullptr);
        EXPECT_EQ(Status::Ok, resp.status);
        expectRamp(0, n, 0);
        return resp;
    }
};

TEST_F(PeerArrivalTest, OwnerServedPagesLandOneByOne)
{
    RpcResponse resp = peerRead(4, {0, 1, 2, 3});
    EXPECT_EQ(4u, resp.peerPages);
    for (unsigned i = 0; i < 4; ++i)
        EXPECT_EQ(landed(i + 1), resp.pageDone[i]) << i;
    EXPECT_EQ(resp.done, resp.pageDone[3]);
}

TEST_F(PeerArrivalTest, HostFallbackPageCarriesDone)
{
    // Page 2 falls back to the host; the served pages still stream in
    // batch order, and the batch ends after the host read.
    RpcResponse resp = peerRead(4, {0, 1, 3});
    EXPECT_EQ(3u, resp.peerPages);
    EXPECT_EQ(landed(1), resp.pageDone[0]);
    EXPECT_EQ(landed(2), resp.pageDone[1]);
    EXPECT_EQ(landed(3), resp.pageDone[3]);
    EXPECT_EQ(resp.done, resp.pageDone[2]);
    EXPECT_GT(resp.done, landed(3));
}

} // namespace
} // namespace rpc
} // namespace gpufs
