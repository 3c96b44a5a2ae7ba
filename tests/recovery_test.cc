/**
 * @file
 * Crash-consistency tests: the fault-injection harness, the daemon's
 * write-ahead journal, and kill-the-daemon recovery.
 *
 * The central property (ISSUE 7): with journaling on, a multi-page
 * update is never torn across a crash at ANY registered crash point,
 * and every byte acknowledged by a gmsync durability barrier survives
 * daemon restart + journal replay. Without the journal the same crash
 * demonstrably tears the update — which is the hazard the journal
 * exists to close.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "gpufs/system.hh"
#include "hostfs/journal.hh"
#include "sim/fault.hh"
#include "tests/testutil.hh"

namespace gpufs {
namespace core {
namespace {

class RecoveryTest : public ::testing::Test
{
  protected:
    static constexpr uint64_t kPage = 16 * KiB;
    static constexpr unsigned kPages = 8;   // per update phase

    GpuFsParams
    baseParams(bool journal)
    {
        GpuFsParams p;
        p.pageSize = kPage;
        p.cacheBytes = 16 * MiB;
        // Pin read-ahead off so injected read faults are consumed by
        // the demand fetches the test issues, not by speculation.
        p.readAheadPages = 0;
        p.journalWriteback = journal;
        return p;
    }

    uint64_t
    fsStat(const char *name)
    {
        return sys->fs().stats().counter(name).get();
    }

    uint64_t
    daemonStat(const char *name)
    {
        return sys->daemon().stats().counter(name).get();
    }

    /** Write kPages whole pages of @p stamp at page @p first_page. */
    void
    writePhase(gpu::BlockCtx &ctx, int fd, unsigned first_page,
               uint8_t stamp)
    {
        std::vector<uint8_t> buf(kPage, stamp);
        for (unsigned pg = 0; pg < kPages; ++pg) {
            ASSERT_EQ(int64_t(kPage),
                      sys->fs().gwrite(ctx, fd,
                                       uint64_t(first_page + pg) * kPage,
                                       kPage, buf.data()));
        }
    }

    /** Every byte of host pages [first, first+n) equals @p want. */
    void
    expectHostPages(const char *path, unsigned first, unsigned n,
                    uint8_t want, const char *what)
    {
        int hfd = sys->hostFs().open(path, hostfs::O_RDONLY_F);
        ASSERT_GE(hfd, 0) << what;
        std::vector<uint8_t> page(kPage);
        for (unsigned pg = first; pg < first + n; ++pg) {
            auto r = sys->hostFs().pread(hfd, page.data(), kPage,
                                         uint64_t(pg) * kPage);
            ASSERT_EQ(Status::Ok, r.status) << what << " page " << pg;
            for (uint64_t i = 0; i < kPage; ++i) {
                ASSERT_EQ(want, page[i])
                    << what << " page " << pg << " byte " << i;
            }
        }
        sys->hostFs().close(hfd);
    }

    std::unique_ptr<GpufsSystem> sys;
};

// ---------------------------------------------------------------------
// The tentpole property: crash-point sweep with the journal on
// ---------------------------------------------------------------------

TEST_F(RecoveryTest, CrashPointSweepNeverTearsAndKeepsAcknowledgedBytes)
{
    // Write-back flushes the update as one WritePages txn, so the whole
    // multi-page update is all-or-nothing, and every crash point fires
    // on its gathered pwritev.
    for (sim::CrashPoint cp : sim::kAllCrashPoints) {
        SCOPED_TRACE(sim::crashPointName(cp));
        sys = std::make_unique<GpufsSystem>(1, baseParams(true));
        auto ctx = test::makeBlock(sys->device(0));

        int fd = sys->fs().gopen(ctx, "/dur",
                                 G_RDWR | G_CREAT | G_GDURABLE);
        ASSERT_GE(fd, 0);

        // Phase U1: acknowledged by the gmsync durability barrier —
        // these bytes must survive ANY later crash.
        writePhase(ctx, fd, 0, 0xA5);
        ASSERT_EQ(Status::Ok, sys->fs().gmsync(ctx, fd));

        // Phase U2: a multi-page update interrupted by the armed crash.
        // The sync's status is unspecified (the crash races the flush);
        // what matters is the post-recovery state.
        sys->sim().faults.armCrash(cp);
        writePhase(ctx, fd, kPages, 0x5C);
        (void)sys->fs().gfsync(ctx, fd);
        ASSERT_TRUE(sys->sim().faults.crashed())
            << "crash point never fired";

        // Kill-the-daemon recovery: stop, clear the crash latch (the
        // "reboot"), start — which replays the journal.
        sys->restartDaemon();
        ASSERT_FALSE(sys->sim().faults.crashed());

        // Acknowledged bytes survive, bit for bit.
        expectHostPages("/dur", 0, kPages, 0xA5, "U1 after recovery");

        // The interrupted update is atomic: the file either grew to
        // cover U2 entirely (every byte the new stamp) or recovery
        // discarded the torn txn and the file still ends at U1.
        hostfs::FileInfo info;
        ASSERT_EQ(Status::Ok, sys->hostFs().stat("/dur", &info));
        if (info.size > uint64_t(kPages) * kPage) {
            ASSERT_EQ(uint64_t(2 * kPages) * kPage, info.size)
                << "partial size = torn update";
            expectHostPages("/dur", kPages, kPages, 0x5C,
                            "U2 all-new after recovery");
        } else {
            ASSERT_EQ(uint64_t(kPages) * kPage, info.size);
        }

        // Recovery did real work somewhere in the sweep: a committed
        // txn replayed, or a torn tail discarded.
        EXPECT_GE(daemonStat("journal_txns_replayed") +
                      daemonStat("journal_torn_records"),
                  1u);

        // The recovered system still takes durable writes end-to-end.
        writePhase(ctx, fd, kPages, 0x5C);
        EXPECT_EQ(Status::Ok, sys->fs().gmsync(ctx, fd));
        expectHostPages("/dur", kPages, kPages, 0x5C, "post-recovery");
        sys->fs().gclose(ctx, fd);
        sys.reset();
    }
}

// ---------------------------------------------------------------------
// Control: without the journal the same crash DOES tear the update
// ---------------------------------------------------------------------

TEST_F(RecoveryTest, MidPwritevWithoutJournalTearsTheUpdate)
{
    sys = std::make_unique<GpufsSystem>(1, baseParams(false));
    test::addRamp(sys->hostFs(), "/plain", uint64_t(kPages) * kPage);
    auto ctx = test::makeBlock(sys->device(0));
    int fd = sys->fs().gopen(ctx, "/plain", G_RDWR);
    ASSERT_GE(fd, 0);

    sys->sim().faults.armCrash(sim::CrashPoint::MidPwritev);
    writePhase(ctx, fd, 0, 0x5C);
    EXPECT_NE(Status::Ok, sys->fs().gfsync(ctx, fd));
    ASSERT_TRUE(sys->sim().faults.crashed());
    sys->sim().faults.reboot();

    // The host file now holds a MIX of old and new bytes — the torn
    // multi-page update journaling prevents.
    int hfd = sys->hostFs().open("/plain", hostfs::O_RDONLY_F);
    ASSERT_GE(hfd, 0);
    std::vector<uint8_t> img(uint64_t(kPages) * kPage);
    auto r = sys->hostFs().pread(hfd, img.data(), img.size(), 0);
    ASSERT_EQ(Status::Ok, r.status);
    sys->hostFs().close(hfd);
    uint64_t new_bytes = 0, old_bytes = 0;
    for (uint64_t i = 0; i < img.size(); ++i) {
        if (img[i] == 0x5C && test::rampByte(i) != 0x5C)
            ++new_bytes;
        else if (img[i] == test::rampByte(i))
            ++old_bytes;
    }
    EXPECT_GT(new_bytes, 0u) << "crash landed nothing: not a tear";
    EXPECT_GT(old_bytes, 0u) << "crash landed everything: not a tear";
    sys->fs().gclose(ctx, fd);
}

// ---------------------------------------------------------------------
// Journal replay: torn tails (bad checksum / missing commit) discard
// ---------------------------------------------------------------------

TEST_F(RecoveryTest, TornJournalTailIsDiscardedOnReplay)
{
    sys = std::make_unique<GpufsSystem>(1, baseParams(true));
    auto ctx = test::makeBlock(sys->device(0));
    int fd = sys->fs().gopen(ctx, "/dur", G_RDWR | G_CREAT | G_GDURABLE);
    ASSERT_GE(fd, 0);
    writePhase(ctx, fd, 0, 0xA5);
    ASSERT_EQ(Status::Ok, sys->fs().gmsync(ctx, fd));

    // Craft a torn tail directly in the journal file: one extent
    // record with a VALID checksum but no commit record (the daemon
    // died mid-append), followed by a record whose checksum lies.
    hostfs::WriteJournal *j = sys->daemon().journal();
    ASSERT_NE(nullptr, j);
    uint64_t tail = j->tailOffset();
    ASSERT_GT(tail, 0u);

    std::vector<uint8_t> payload(64, 0xEE);
    hostfs::JRecHeader h{};
    h.magic = hostfs::kJournalMagic;
    h.type = hostfs::kJRecExtent;
    h.txn = 999;
    h.ino = 1;
    h.offset = 0;
    h.len = payload.size();
    h.checksum = hostfs::journalChecksum(payload.data(), payload.size());
    std::vector<uint8_t> tail_bytes;
    auto append = [&](const void *p, size_t n) {
        const uint8_t *b = static_cast<const uint8_t *>(p);
        tail_bytes.insert(tail_bytes.end(), b, b + n);
    };
    append(&h, sizeof h);
    append(payload.data(), payload.size());
    h.checksum ^= 0xDEAD;       // second record: corrupted payload sum
    append(&h, sizeof h);
    append(payload.data(), payload.size());

    int jfd = sys->hostFs().open(hostfs::WriteJournal::kPath,
                                 hostfs::O_RDWR_F);
    ASSERT_GE(jfd, 0);
    ASSERT_EQ(Status::Ok,
              sys->hostFs()
                  .pwrite(jfd, tail_bytes.data(), tail_bytes.size(), tail)
                  .status);
    sys->hostFs().close(jfd);

    // The daemon "died" mid-append: mark the host crashed so stop()
    // behaves like a dead daemon (no clean-shutdown checkpoint — that
    // would truncate the very records recovery must chew through).
    sys->sim().faults.armCrash(sim::CrashPoint::MidJournalAppend);
    sys->sim().faults.hitCrashPoint(sim::CrashPoint::MidJournalAppend);

    sys->restartDaemon();

    // The committed txn replayed; the torn tail was discarded (the
    // valid-but-uncommitted extent counts as torn) and the journal
    // truncated for a fresh epoch.
    EXPECT_GE(daemonStat("journal_txns_replayed"), 1u);
    EXPECT_GE(daemonStat("journal_torn_records"), 1u);
    EXPECT_EQ(0u, j->tailOffset());
    hostfs::FileInfo jinfo;
    ASSERT_EQ(Status::Ok,
              sys->hostFs().stat(hostfs::WriteJournal::kPath, &jinfo));
    EXPECT_EQ(0u, jinfo.size);

    // Acknowledged data untouched by the garbage records.
    expectHostPages("/dur", 0, kPages, 0xA5, "after torn-tail replay");
    sys->fs().gclose(ctx, fd);
}

// ---------------------------------------------------------------------
// Graceful degradation: transient faults retry, permanent ones surface
// ---------------------------------------------------------------------

TEST_F(RecoveryTest, TransientReadFaultsRetryThenSurfaceAsStatus)
{
    sys = std::make_unique<GpufsSystem>(1, baseParams(false));
    constexpr uint64_t kFile = 16 * kPage;
    test::addRamp(sys->hostFs(), "/r", kFile);
    auto ctx = test::makeBlock(sys->device(0));
    int fd = sys->fs().gopen(ctx, "/r", G_RDONLY);
    ASSERT_GE(fd, 0);
    std::vector<uint8_t> buf(kPage);

    // Two injected EIOs: absorbed by the daemon's bounded retry, the
    // application sees a clean read.
    sys->sim().faults.injectIoError(sim::FaultOp::HostRead, 2);
    ASSERT_EQ(int64_t(kPage),
              sys->fs().gread(ctx, fd, 0, kPage, buf.data()));
    for (uint64_t i = 0; i < kPage; ++i)
        ASSERT_EQ(test::rampByte(i), buf[i]) << i;
    EXPECT_GE(daemonStat("io_retries"), 2u);
    EXPECT_EQ(0u, daemonStat("io_retry_giveups"));

    // A fault outliving the retry budget completes the RPC with an
    // error IoResult that surfaces as a GStatus — no gpufs_assert, no
    // wedged slot. (Fresh page so the cache can't satisfy it.)
    sys->sim().faults.injectIoError(sim::FaultOp::HostRead, 100);
    int64_t rc = sys->fs().gread(ctx, fd, 4 * kPage, kPage, buf.data());
    ASSERT_LT(rc, 0);
    EXPECT_EQ(Status::IoError, gstatus_of(rc));
    EXPECT_GE(daemonStat("io_retry_giveups"), 1u);

    // Clearing the fault heals the path: the same read now succeeds,
    // so the failed fetch restored the frames it had claimed.
    sys->sim().faults.reset();
    ASSERT_EQ(int64_t(kPage),
              sys->fs().gread(ctx, fd, 4 * kPage, kPage, buf.data()));
    for (uint64_t i = 0; i < kPage; ++i)
        ASSERT_EQ(test::rampByte(4 * kPage + i), buf[i]) << i;
    sys->fs().gclose(ctx, fd);
}

// ---------------------------------------------------------------------
// G_GDURABLE fsyncs never dedup; plain files still do
// ---------------------------------------------------------------------

TEST_F(RecoveryTest, GdurableFsyncNeverDedupsAndRidesCommitRecord)
{
    sys = std::make_unique<GpufsSystem>(1, baseParams(true));
    auto ctx = test::makeBlock(sys->device(0));

    int fd = sys->fs().gopen(ctx, "/dur", G_RDWR | G_CREAT | G_GDURABLE);
    ASSERT_GE(fd, 0);
    std::vector<uint8_t> buf(kPage, 0x11);
    ASSERT_EQ(int64_t(kPage),
              sys->fs().gwrite(ctx, fd, 0, kPage, buf.data()));
    ASSERT_EQ(Status::Ok, sys->fs().gfsync(ctx, fd));
    // Back-to-back barrier with nothing newly dirty: previously this
    // would dedup on needsFsync — with data only in the host page
    // cache, that skipped the durability point. Durable files must
    // issue the barrier every time (answered from the commit record,
    // so no extra disk work).
    ASSERT_EQ(Status::Ok, sys->fs().gfsync(ctx, fd));
    EXPECT_EQ(0u, fsStat("fsyncs_deduped"));
    EXPECT_EQ(2u, daemonStat("journal_commit_barriers"));
    EXPECT_GE(daemonStat("journal_commits"), 1u);
    sys->fs().gclose(ctx, fd);

    // Control in the same system: a non-durable file's second gfsync
    // still dedups (the coalescing the fast path exists for).
    int pfd = sys->fs().gopen(ctx, "/plain", G_RDWR | G_CREAT);
    ASSERT_GE(pfd, 0);
    ASSERT_EQ(int64_t(kPage),
              sys->fs().gwrite(ctx, pfd, 0, kPage, buf.data()));
    ASSERT_EQ(Status::Ok, sys->fs().gfsync(ctx, pfd));
    ASSERT_EQ(Status::Ok, sys->fs().gfsync(ctx, pfd));
    EXPECT_GE(fsStat("fsyncs_deduped"), 1u);
    sys->fs().gclose(ctx, pfd);
}

// ---------------------------------------------------------------------
// Short writes surface as transient faults too
// ---------------------------------------------------------------------

TEST_F(RecoveryTest, InjectedShortWriteIsRetriedToCompletion)
{
    sys = std::make_unique<GpufsSystem>(1, baseParams(false));
    test::addRamp(sys->hostFs(), "/s", uint64_t(kPages) * kPage);
    auto ctx = test::makeBlock(sys->device(0));
    int fd = sys->fs().gopen(ctx, "/s", G_RDWR);
    ASSERT_GE(fd, 0);

    writePhase(ctx, fd, 0, 0x77);
    sys->sim().faults.injectShortWrite(1);
    ASSERT_EQ(Status::Ok, sys->fs().gfsync(ctx, fd));
    EXPECT_GE(daemonStat("io_retries"), 1u);
    sys->sim().faults.reset();
    expectHostPages("/s", 0, kPages, 0x77, "after short-write retry");
    sys->fs().gclose(ctx, fd);
}

// ---------------------------------------------------------------------
// Journal replay is backend-independent (the journal appends through
// the buffered host path; the in-place write rode DirectBackend)
// ---------------------------------------------------------------------

TEST_F(RecoveryTest, JournalReplayProtectsDirectBackendWritebacks)
{
    GpuFsParams p = baseParams(true);
    p.storageBackend = storage::BackendKind::Direct;
    sys = std::make_unique<GpufsSystem>(1, p);
    auto ctx = test::makeBlock(sys->device(0));
    int fd = sys->fs().gopen(ctx, "/dur", G_RDWR | G_CREAT | G_GDURABLE);
    ASSERT_GE(fd, 0);

    writePhase(ctx, fd, 0, 0xA5);
    ASSERT_EQ(Status::Ok, sys->fs().gmsync(ctx, fd));

    // Crash in the window the journal exists for: commit durable, the
    // O_DIRECT in-place write never ran.
    sys->sim().faults.armCrash(sim::CrashPoint::AfterJournalCommit);
    writePhase(ctx, fd, kPages, 0x5C);
    (void)sys->fs().gfsync(ctx, fd);
    ASSERT_TRUE(sys->sim().faults.crashed()) << "crash never fired";

    sys->restartDaemon();
    EXPECT_GE(daemonStat("journal_txns_replayed"), 1u);

    // Acknowledged bytes survive; the interrupted update is atomic.
    expectHostPages("/dur", 0, kPages, 0xA5, "U1 after direct recovery");
    hostfs::FileInfo info;
    ASSERT_EQ(Status::Ok, sys->hostFs().stat("/dur", &info));
    if (info.size > uint64_t(kPages) * kPage) {
        ASSERT_EQ(uint64_t(2 * kPages) * kPage, info.size);
        expectHostPages("/dur", kPages, kPages, 0x5C,
                        "U2 all-new after direct recovery");
    }

    // The recovered Direct-backend system still takes durable writes.
    writePhase(ctx, fd, kPages, 0x5C);
    EXPECT_EQ(Status::Ok, sys->fs().gmsync(ctx, fd));
    expectHostPages("/dur", kPages, kPages, 0x5C, "post-recovery");
    sys->fs().gclose(ctx, fd);
}

// ---------------------------------------------------------------------
// Clean shutdown checkpoints the journal (stop with nothing pending)
// ---------------------------------------------------------------------

TEST_F(RecoveryTest, CleanStopCheckpointsJournalAndRestartSkipsReplay)
{
    sys = std::make_unique<GpufsSystem>(1, baseParams(true));
    auto ctx = test::makeBlock(sys->device(0));
    int fd = sys->fs().gopen(ctx, "/dur", G_RDWR | G_CREAT | G_GDURABLE);
    ASSERT_GE(fd, 0);
    writePhase(ctx, fd, 0, 0xA5);
    ASSERT_EQ(Status::Ok, sys->fs().gmsync(ctx, fd));

    hostfs::WriteJournal *j = sys->daemon().journal();
    ASSERT_NE(nullptr, j);
    ASSERT_GT(j->tailOffset(), 0u);
    ASSERT_EQ(0u, daemonStat("journal_checkpoints"));

    // Clean stop: every committed txn was applied in place, so stop()
    // truncates the journal after flushing the files it covered.
    sys->daemon().stop();
    EXPECT_EQ(1u, daemonStat("journal_checkpoints"));
    EXPECT_EQ(0u, j->tailOffset());
    hostfs::FileInfo jinfo;
    ASSERT_EQ(Status::Ok,
              sys->hostFs().stat(hostfs::WriteJournal::kPath, &jinfo));
    EXPECT_EQ(0u, jinfo.size);
    expectHostPages("/dur", 0, kPages, 0xA5, "after checkpoint");

    // The next start finds an empty journal: no replay work at all.
    sys->restartDaemon();
    EXPECT_EQ(0u, daemonStat("journal_txns_replayed"));
    EXPECT_EQ(0u, daemonStat("journal_torn_records"));

    // And the restarted daemon keeps journaling as before.
    writePhase(ctx, fd, kPages, 0x5C);
    EXPECT_EQ(Status::Ok, sys->fs().gmsync(ctx, fd));
    expectHostPages("/dur", kPages, kPages, 0x5C, "post-checkpoint write");
    sys->fs().gclose(ctx, fd);
}

// ---------------------------------------------------------------------
// Group commit: one journal fsync per sweep, not one per WritePages
// ---------------------------------------------------------------------

// Four durable WritePages claimed by ONE service sweep share ONE
// journal fsync (the preflight appends all four txns, then group-syncs
// before any in-place write — the WAL ordering the crash-point sweep
// above depends on), and the gmsync barrier count stays below the
// WritePages count: commits are per-txn, durability points per-sweep.
TEST(JournalGroupCommit, SweepOfWritePagesSharesOneJournalFsync)
{
    sim::SimContext sim;
    hostfs::HostFs fs{sim};
    consistency::ConsistencyMgr mgr;
    gpu::GpuDevice dev{sim, 0};
    rpc::CpuDaemon daemon{fs, mgr};
    daemon.enableJournal();
    rpc::RpcQueue &q = daemon.attachGpu(dev);
    daemon.start();

    rpc::RpcRequest o;
    o.op = rpc::RpcOp::Open;
    std::strncpy(o.path, "/gc", sizeof o.path - 1);
    o.flags = hostfs::O_RDWR_F | hostfs::O_CREAT_F | hostfs::O_GDURABLE_F;
    o.wantsWrite = true;
    rpc::RpcSlot *os = q.trySubmit(o);
    ASSERT_NE(nullptr, os);
    rpc::RpcResponse orsp = q.collect(*os);
    ASSERT_EQ(Status::Ok, orsp.status);
    const int fd = orsp.hostFd;

    // Park the daemon so all four WritePages land in one sweep.
    daemon.stop();

    constexpr uint64_t kPg = 16 * KiB;
    constexpr unsigned kWrites = 4;
    std::vector<std::vector<uint8_t>> bufs(
        kWrites, std::vector<uint8_t>(kPg, 0xAB));
    rpc::RpcSlot *held[kWrites];
    for (unsigned r = 0; r < kWrites; ++r) {
        rpc::RpcRequest w;
        w.op = rpc::RpcOp::WritePages;
        w.hostFd = fd;
        w.pageCount = 1;
        w.pageLen = kPg;
        w.len = kPg;
        w.issueTime = 10 * r;
        w.batch[0] = bufs[r].data();
        w.batchOff[0] = uint64_t(r) * kPg;
        w.batchLen[0] = uint32_t(kPg);
        held[r] = q.trySubmit(w);
        ASSERT_NE(nullptr, held[r]);
    }
    daemon.start();
    for (unsigned r = 0; r < kWrites; ++r) {
        rpc::RpcResponse resp = q.collect(*held[r]);
        ASSERT_EQ(Status::Ok, resp.status) << "write " << r;
        EXPECT_EQ(kPg, resp.bytes) << "write " << r;
    }

    // The gmsync durability barrier, answered from the commit record.
    rpc::RpcRequest fr;
    fr.op = rpc::RpcOp::Fsync;
    fr.hostFd = fd;
    fr.durableBarrier = true;
    rpc::RpcSlot *fsl = q.trySubmit(fr);
    ASSERT_NE(nullptr, fsl);
    ASSERT_EQ(Status::Ok, q.collect(*fsl).status);

    auto stat = [&](const char *n) {
        return daemon.stats().counter(n).get();
    };
    EXPECT_EQ(uint64_t(kWrites), stat("journal_commits"));
    EXPECT_EQ(1u, stat("journal_group_syncs"));
    EXPECT_EQ(1u, stat("journal_commit_barriers"));
    EXPECT_LT(stat("journal_commit_barriers"), uint64_t(kWrites));

    // And the bytes all landed in place.
    std::vector<uint8_t> page(kPg);
    for (unsigned r = 0; r < kWrites; ++r) {
        auto rr = fs.pread(fd, page.data(), kPg, uint64_t(r) * kPg);
        ASSERT_EQ(Status::Ok, rr.status);
        for (uint64_t i = 0; i < kPg; ++i)
            ASSERT_EQ(0xAB, page[i]) << "page " << r << " byte " << i;
    }
    daemon.stop();
    fs.close(fd);
}

} // namespace
} // namespace core
} // namespace gpufs
