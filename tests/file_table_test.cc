/** @file Decision-identity tests for the indexed file table.
 *
 *  FileTable finds entries through indexes instead of scanning its
 *  array, and each lookup must return exactly the entry the scan did:
 *  the lowest matching slot. (a) drives the table through seeded
 *  random open/close/destroy/recycle sequences and checks every lookup
 *  against a reference linear scan kept here; (b) pins a deterministic
 *  single-block GpuFs trace (counters and virtual end time) to the
 *  values the scanning table produced; (c) churns three concurrent
 *  blocks through a small table. */

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "base/rng.hh"
#include "gpufs/file_table.hh"
#include "tests/testutil.hh"

namespace gpufs {
namespace core {
namespace {

constexpr uint64_t kPage = 16 * KiB;

// ---------------------------------------------------------------------
// (a) Indexed lookups against reference scans
// ---------------------------------------------------------------------

/** The linear scans the indexes replace, over the same entries. */
struct ReferenceScan {
    FileTable &t;

    int
    openByPath(const std::string &path) const
    {
        for (size_t i = 0; i < t.size(); ++i) {
            OpenFile &e = t.at(int(i));
            if (e.state() == OpenFile::EState::Open && e.path == path)
                return int(i);
        }
        return -1;
    }

    std::vector<int>
    slotsOfPath(const std::string &path) const
    {
        std::vector<int> out;
        for (size_t i = 0; i < t.size(); ++i) {
            OpenFile &e = t.at(int(i));
            if (e.state() != OpenFile::EState::Free && e.path == path)
                out.push_back(int(i));
        }
        return out;
    }

    int
    closedByIno(uint64_t ino) const
    {
        for (size_t i = 0; i < t.size(); ++i) {
            OpenFile &e = t.at(int(i));
            if (e.state() == OpenFile::EState::Closed && e.ino == ino)
                return int(i);
        }
        return -1;
    }

    OpenFile *
    anyByIno(uint64_t ino) const
    {
        for (size_t i = 0; i < t.size(); ++i) {
            OpenFile &e = t.at(int(i));
            if (e.state() != OpenFile::EState::Free && e.ino == ino &&
                e.cf.cache)
                return &e;
        }
        return nullptr;
    }

    int
    firstFree() const
    {
        for (size_t i = 0; i < t.size(); ++i) {
            if (t.at(int(i)).state() == OpenFile::EState::Free)
                return int(i);
        }
        return -1;
    }

    int
    recyclable() const
    {
        for (int pass = 0; pass < 2; ++pass) {
            int best = -1;
            uint64_t best_seq = UINT64_MAX;
            for (size_t i = 0; i < t.size(); ++i) {
                OpenFile &e = t.at(int(i));
                if (e.state() != OpenFile::EState::Closed ||
                    e.cf.fetchInFlight.load() != 0 ||
                    e.cf.opInFlight.load() != 0)
                    continue;
                bool clean = !e.cf.cache || e.cf.cache->dirtyCount() == 0;
                if (pass == 0 && !clean)
                    continue;
                if (e.cf.closeSeq < best_seq) {
                    best_seq = e.cf.closeSeq;
                    best = int(i);
                }
            }
            if (best >= 0)
                return best;
        }
        return -1;
    }

    int
    drainedClosed() const
    {
        for (size_t i = 0; i < t.size(); ++i) {
            OpenFile &e = t.at(int(i));
            if (e.state() == OpenFile::EState::Closed && e.cf.cache &&
                e.cf.cache->dirtyCount() == 0 &&
                e.cf.cache->residentPages() == 0 &&
                e.cf.fetchInFlight.load() == 0 &&
                e.cf.opInFlight.load() == 0)
                return int(i);
        }
        return -1;
    }

};

/**
 * A 16-entry table driven the way GpuFs drives it (drained collection
 * and closed-table reuse on the open slow path, recycling when full,
 * unlink of parked entries), with the cache-side state the lookups
 * read — resident pages, dirty pages, in-flight counters — mutated at
 * random in between. Forty paths share thirty inodes, so a parked
 * entry is sometimes reopened under another name.
 */
class RandomTableTrace
{
  public:
    static constexpr unsigned kEntries = 16;
    static constexpr unsigned kPaths = 40;
    static constexpr unsigned kInos = 30;
    static constexpr unsigned kFilePages = 4;

    explicit RandomTableTrace(uint64_t seed) : rng_(seed) {}

    void
    run(unsigned steps)
    {
        for (unsigned s = 0; s < steps; ++s) {
            step();
            checkLookups();
            if (::testing::Test::HasFailure())
                return;
        }
        // The trace must have exercised every transition it checks.
        EXPECT_GT(reopens_, 0u);
        EXPECT_GT(recycles_, 0u);
        EXPECT_GT(drainedDestroys_, 0u);
        EXPECT_GT(staleDestroys_, 0u);
    }

  private:
    SplitMix64 rng_;
    StatSet stats_{"file_table_test"};
    CacheCounters counters_{stats_.counter("a"), stats_.counter("b"),
                            stats_.counter("c"), stats_.counter("d"),
                            stats_.counter("e")};
    FrameArena arena_{48 * kPage, kPage};
    FileTable table_{kEntries};
    ReferenceScan ref_{table_};
    std::vector<int> handles_;      // one per outstanding open
    uint64_t closeSeq_ = 0;
    unsigned reopens_ = 0, recycles_ = 0, drainedDestroys_ = 0,
             staleDestroys_ = 0;

    static std::string path(unsigned p) { return "/t/f" + std::to_string(p); }
    static uint64_t inoOf(unsigned p) { return 1 + p % kInos; }

    void
    destroy(int idx)
    {
        OpenFile &e = table_.at(idx);
        e.cf.cache.reset();
        e.cf.fetchInFlight.store(0);
        e.cf.opInFlight.store(0);
        table_.markFree(idx);
    }

    void
    open(unsigned p)
    {
        const std::string name = path(p);
        int idx = table_.findOpenByPath(name);
        if (idx >= 0) {
            table_.at(idx).refs.fetch_add(1);
            handles_.push_back(idx);
            return;
        }
        for (int di; (di = table_.findDrainedClosed()) >= 0;) {
            destroy(di);
            ++drainedDestroys_;
        }
        const uint64_t ino = inoOf(p);
        int cidx = table_.findClosedByIno(ino);
        if (cidx >= 0) {
            if (rng_.nextBelow(4) != 0) {   // host version unchanged
                table_.markOpen(cidx, name, ino, G_RDWR);
                handles_.push_back(cidx);
                ++reopens_;
                return;
            }
            // Stale: drop it, unless an unretired token pins it.
            if (table_.at(cidx).cf.opInFlight.load() == 0) {
                destroy(cidx);
                ++staleDestroys_;
            } else {
                cidx = -1;
            }
        }
        int nidx = cidx;
        if (nidx < 0)
            nidx = table_.findFree();
        if (nidx < 0) {
            nidx = table_.pickRecyclable();
            if (nidx < 0)
                return;     // TooManyFiles
            destroy(nidx);
            ++recycles_;
        }
        OpenFile &e = table_.at(nidx);
        e.cf.cache = std::make_unique<FileCache>(arena_, counters_, false);
        table_.markOpen(nidx, name, ino, G_RDWR);
        handles_.push_back(nidx);
    }

    void
    closeOne()
    {
        size_t h = rng_.nextBelow(handles_.size());
        int idx = handles_[h];
        handles_.erase(handles_.begin() + long(h));
        OpenFile &e = table_.at(idx);
        if (e.refs.fetch_sub(1) > 1)
            return;
        e.cf.closeSeq = ++closeSeq_;
        table_.markClosed(idx);
    }

    /** Mutate the cache-side state of a random live entry. */
    void
    touchCache()
    {
        int idx = int(rng_.nextBelow(kEntries));
        OpenFile &e = table_.at(idx);
        if (!e.cf.cache)
            return;
        FileCache &c = *e.cf.cache;
        uint64_t page = rng_.nextBelow(kFilePages);
        std::vector<uint8_t> bytes(kPage, uint8_t(idx));
        switch (rng_.nextBelow(5)) {
          case 0:
          case 1:
            c.tryAdoptPage(page, bytes.data(), uint32_t(kPage), 0, 0);
            break;
          case 2:
            // Eviction of the whole file: BufferCache reports a parked
            // file that lost pages (takeEvictedParked).
            c.dropAll();
            table_.noteEvicted(idx);
            break;
          case 3: {
            FPage *fp = c.getPage(page);
            uint32_t fr;
            if (c.tryPinReady(*fp, page, &fr)) {
                if (rng_.nextBelow(2))
                    c.noteDirty(arena_.frame(fr), 0, 64);
                else
                    c.takeDirtyCounted(arena_.frame(fr));
                c.unpin(*fp);
            }
            break;
          }
          case 4:
            if (rng_.nextBelow(2))
                e.cf.fetchInFlight.store(rng_.nextBelow(3) == 0 ? 1 : 0);
            else
                e.cf.opInFlight.store(rng_.nextBelow(3) == 0 ? 1 : 0);
            break;
        }
    }

    void
    unlink(unsigned p)
    {
        for (int idx : table_.slotsOfPath(path(p))) {
            if (table_.at(idx).state() == OpenFile::EState::Closed)
                destroy(idx);
        }
    }

    void
    step()
    {
        unsigned r = unsigned(rng_.nextBelow(100));
        if (r < 35 || handles_.empty())
            open(unsigned(rng_.nextBelow(kPaths)));
        else if (r < 65)
            closeOne();
        else if (r < 95)
            touchCache();
        else
            unlink(unsigned(rng_.nextBelow(kPaths)));
    }

    void
    checkLookups()
    {
        for (unsigned p = 0; p < kPaths; ++p) {
            ASSERT_EQ(ref_.openByPath(path(p)),
                      table_.findOpenByPath(path(p)));
            ASSERT_EQ(ref_.slotsOfPath(path(p)), table_.slotsOfPath(path(p)));
        }
        for (uint64_t ino = 0; ino <= kInos + 1; ++ino) {
            ASSERT_EQ(ref_.closedByIno(ino), table_.findClosedByIno(ino));
            ASSERT_EQ(ref_.anyByIno(ino), table_.findAnyByIno(ino));
        }
        ASSERT_EQ(ref_.firstFree(), table_.findFree());
        ASSERT_EQ(ref_.recyclable(), table_.pickRecyclable());
        ASSERT_EQ(ref_.drainedClosed(), table_.findDrainedClosed());
    }
};

TEST(FileTableTest, IndexedLookupsMatchReferenceScan)
{
    for (uint64_t seed = 1; seed <= 8; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        RandomTableTrace trace(seed);
        trace.run(3000);
        if (HasFailure())
            return;
    }
}

// ---------------------------------------------------------------------
// (b) Single-block GpuFs trace pinned to the scanning table's decisions
// ---------------------------------------------------------------------

/** 200 eight-page files behind a 64-entry table and a 256-frame arena,
 *  direct backend with the victim tier on: closed-table reuse, drained
 *  collection and recycling all run. Every seventh file is opened
 *  read-write and takes small writes and the odd gfsync. */
struct PinnedTrace {
    static constexpr unsigned kFiles = 200;
    static constexpr unsigned kFilePages = 8;
    static constexpr uint64_t kPinPage = 4 * KiB;

    std::unique_ptr<GpufsSystem> sys;

    PinnedTrace()
    {
        GpuFsParams p;
        p.pageSize = kPinPage;
        p.cacheBytes = 1 * MiB;
        p.maxOpenFiles = 64;
        p.storageBackend = storage::BackendKind::Direct;
        p.victimCachePages = 64;
        // No read-ahead: a prefetch RPC in flight beside a demand fetch
        // lets the daemon's sweep timing move virtual time.
        p.readAheadPages = 0;
        sys = std::make_unique<GpufsSystem>(1, p);
        for (unsigned f = 0; f < kFiles; ++f)
            test::addRamp(sys->hostFs(), name(f), kFilePages * kPinPage);
    }

    static std::string name(unsigned f) { return "/pin/f" + std::to_string(f); }

    /** Run the trace; @return the block's virtual end time. */
    Time
    run()
    {
        gpu::BlockCtx ctx = test::makeBlock(sys->device(0));
        GpuFs &fs = sys->fs();
        SplitMix64 rng(0x5EED);
        struct Handle {
            int fd;
            unsigned file;
        };
        std::deque<Handle> open;
        std::vector<uint8_t> buf(4 * kPinPage);
        for (unsigned step = 0; step < 3000; ++step) {
            unsigned r = unsigned(rng.nextBelow(100));
            if (open.size() < 3 || (r < 30 && open.size() < 6)) {
                // Skewed popularity: low-numbered files recur.
                unsigned f = unsigned(rng.nextBelow(rng.nextBelow(kFiles) + 1));
                uint32_t flags = f % 7 == 0 ? G_RDWR : G_RDONLY;
                int fd = fs.gopen(ctx, name(f), flags);
                EXPECT_GE(fd, 0) << "gopen " << name(f);
                if (fd < 0)
                    return ctx.now();
                open.push_back({fd, f});
            } else if (r < 75) {
                const Handle &h = open[rng.nextBelow(open.size())];
                // First each file's first page only (entries park
                // holding one page, so the table fills and recycles),
                // then up to four pages anywhere (the arena fills and
                // eviction demotes into the victim tier).
                const bool head = step < 1500;
                uint64_t len = 1 + rng.nextBelow(head ? kPinPage / 2
                                                      : buf.size());
                uint64_t off = rng.nextBelow(
                    (head ? kPinPage : kFilePages * kPinPage) - len);
                int64_t n = fs.gread(ctx, h.fd, off, len, buf.data());
                EXPECT_EQ(int64_t(len), n);
                if (h.file % 7 != 0 && n > 0) {
                    // Read-only files keep the host's ramp bytes.
                    EXPECT_EQ(test::rampByte(off), buf[0]);
                    EXPECT_EQ(test::rampByte(off + len - 1), buf[len - 1]);
                }
            } else if (r < 85) {
                const Handle &h = open[rng.nextBelow(open.size())];
                if (h.file % 7 == 0) {
                    uint64_t off = rng.nextBelow(kFilePages * kPinPage - 64);
                    std::memset(buf.data(), int(step), 64);
                    EXPECT_EQ(64, fs.gwrite(ctx, h.fd, off, 64, buf.data()));
                    if (rng.nextBelow(3) == 0) {
                        EXPECT_EQ(Status::Ok, fs.gfsync(ctx, h.fd));
                    }
                }
            } else {
                EXPECT_EQ(Status::Ok, fs.gclose(ctx, open.front().fd));
                open.pop_front();
            }
        }
        for (const Handle &h : open)
            EXPECT_EQ(Status::Ok, fs.gclose(ctx, h.fd));
        return ctx.now();
    }

    std::map<std::string, uint64_t>
    counters()
    {
        std::map<std::string, uint64_t> out;
        auto fs_stats = sys->fs().stats().snapshot();
        for (const char *k : {"opens", "open_rpcs", "cache_misses",
                              "pages_reclaimed", "drained_caches_collected"})
            out[k] = fs_stats[k];
        auto d_stats = sys->daemon().stats().snapshot();
        for (const char *k : {"vc_inserts", "vc_hits", "vc_misses",
                              "vc_version_stale", "vc_evictions"})
            out[k] = d_stats[k];
        // Parked entries still holding dirty pages keep their fd.
        out["host_fds_held"] = sys->fs().hostFdsHeld();
        return out;
    }
};

TEST(FileTableTest, SingleBlockTraceKeepsEveryDecision)
{
    PinnedTrace trace;
    Time end = trace.run();
    ASSERT_FALSE(HasFailure());
    // Measured with the scanning table; any change to slot choice,
    // drained collection, recycling or eviction order moves these.
    const std::map<std::string, uint64_t> expect = {
        {"opens", 439},
        {"open_rpcs", 428},
        {"cache_misses", 1060},
        {"pages_reclaimed", 736},
        // Counts only the async flusher's collections (off here); the
        // open path's collections show in the counts above.
        {"drained_caches_collected", 0},
        {"vc_inserts", 736},
        {"vc_hits", 48},
        {"vc_misses", 1009},
        {"vc_version_stale", 3},
        {"vc_evictions", 627},
        {"host_fds_held", 11},
    };
    EXPECT_EQ(expect, trace.counters());
    EXPECT_EQ(Time(218939805), end);
}

// ---------------------------------------------------------------------
// (c) Three blocks churning 500 files through a 64-entry table
// ---------------------------------------------------------------------

TEST(FileTableTest, ThreadedChurnThroughSmallTable)
{
    constexpr unsigned kFiles = 500;
    constexpr unsigned kBlocks = 3;
    constexpr unsigned kOpsPerBlock = 400;
    GpuFsParams p;
    p.pageSize = kPage;
    p.cacheBytes = 1 * MiB;
    p.maxOpenFiles = 64;
    p.victimCachePages = 64;
    GpufsSystem sys(1, p);
    for (unsigned f = 0; f < kFiles; ++f)
        test::addRamp(sys.hostFs(), "/churn/f" + std::to_string(f),
                      2 * kPage);

    std::atomic<unsigned> failures{0};
    gpu::launch(sys.device(0), kBlocks, 256, [&](gpu::BlockCtx &ctx) {
        SplitMix64 rng(1000 + ctx.blockId());
        GpuFs &fs = sys.fs();
        std::vector<uint8_t> buf(1024);
        for (unsigned i = 0; i < kOpsPerBlock; ++i) {
            unsigned f = unsigned(rng.nextBelow(rng.nextBelow(kFiles) + 1));
            int fd = fs.gopen(ctx, "/churn/f" + std::to_string(f), G_RDONLY);
            if (fd < 0) {
                failures.fetch_add(1);
                continue;
            }
            uint64_t off = rng.nextBelow(2 * kPage - buf.size());
            if (fs.gread(ctx, fd, off, buf.size(), buf.data()) !=
                    int64_t(buf.size()) ||
                buf[0] != test::rampByte(off) ||
                buf[buf.size() - 1] != test::rampByte(off + buf.size() - 1))
                failures.fetch_add(1);
            if (fs.gclose(ctx, fd) != Status::Ok)
                failures.fetch_add(1);
        }
    });
    EXPECT_EQ(0u, failures.load());

    // Every entry is parked clean, so none kept its host fd, and every
    // file still opens (through reuse, recycling or a free slot).
    EXPECT_EQ(0u, sys.fs().hostFdsHeld());
    gpu::BlockCtx ctx = test::makeBlock(sys.device(0));
    for (unsigned f = 0; f < kFiles; f += 7) {
        int fd = sys.fs().gopen(ctx, "/churn/f" + std::to_string(f),
                                G_RDONLY);
        ASSERT_GE(fd, 0);
        uint8_t b = 0;
        ASSERT_EQ(1, sys.fs().gread(ctx, fd, 100, 1, &b));
        EXPECT_EQ(test::rampByte(100), b);
        EXPECT_EQ(Status::Ok, sys.fs().gclose(ctx, fd));
    }
}

} // namespace
} // namespace core
} // namespace gpufs
