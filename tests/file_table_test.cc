/** @file Decision-identity tests for the indexed file table, and
 *  for gopen/gclose running their host RPCs outside the table lock.
 *
 *  FileTable finds entries through indexes instead of scanning its
 *  array, and each lookup must return exactly the entry the scan did:
 *  the lowest matching slot. (a) drives the table through seeded
 *  random open/close/destroy/recycle sequences and checks every lookup
 *  against a reference linear scan kept here; (b) pins a deterministic
 *  single-block GpuFs trace (counters and virtual end time) to the
 *  values the scanning table produced; (c) churns three concurrent
 *  blocks through a small table; (d) answers a GpuFs's RPCs from a
 *  test thread, holding Open RPCs back, to check that other blocks'
 *  opens and closes proceed meanwhile and that racing opens of one
 *  path end in one entry with every host fd closed. */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
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
    closedByIno(uint64_t ino, uint64_t version) const
    {
        int first = -1;
        for (size_t i = 0; i < t.size(); ++i) {
            OpenFile &e = t.at(int(i));
            if (e.state() != OpenFile::EState::Closed || e.ino != ino)
                continue;
            if (e.cf.cache && e.cf.version.load() == version)
                return int(i);
            if (first < 0)
                first = int(i);
        }
        return first;
    }

    OpenFile *
    anyByIno(uint64_t ino, uint64_t version) const
    {
        OpenFile *first = nullptr;
        for (size_t i = 0; i < t.size(); ++i) {
            OpenFile &e = t.at(int(i));
            if (e.state() == OpenFile::EState::Free || e.ino != ino ||
                !e.cf.cache)
                continue;
            if (e.cf.version.load() == version)
                return &e;
            if (!first)
                first = &e;
        }
        return first;
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
        EXPECT_GT(versionPicks_, 0u);
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
    uint64_t hostVersion_[kInos + 2] = {};
    uint64_t closeSeq_ = 0;
    unsigned reopens_ = 0, recycles_ = 0, drainedDestroys_ = 0,
             staleDestroys_ = 0, versionPicks_ = 0;

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
        if (rng_.nextBelow(4) == 0)
            ++hostVersion_[ino];    // the host wrote the file
        const uint64_t version = hostVersion_[ino];
        int cidx = table_.findClosedByIno(ino, version);
        if (cidx >= 0) {
            OpenFile &c = table_.at(cidx);
            if (c.cf.cache && c.cf.version.load() == version) {
                table_.markOpen(cidx, name, ino, G_RDWR);
                handles_.push_back(cidx);
                ++reopens_;
                return;
            }
            // Stale: drop it, unless an unretired token pins it (it
            // then stays parked beside the entry opened below).
            if (c.cf.opInFlight.load() == 0) {
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
        e.cf.version.store(version);
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
            // The current version, the one before it (stale parked
            // entries) and one no entry holds.
            const uint64_t hv = hostVersion_[ino];
            for (uint64_t v = hv ? hv - 1 : 0; v <= hv + 1; ++v) {
                ASSERT_EQ(ref_.closedByIno(ino, v),
                          table_.findClosedByIno(ino, v));
                ASSERT_EQ(ref_.anyByIno(ino, v), table_.findAnyByIno(ino, v));
                // The version picked an entry above a lower stale one.
                if (table_.findClosedByIno(ino, v) !=
                    table_.findClosedByIno(ino, UINT64_MAX))
                    ++versionPicks_;
            }
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
                              "pages_reclaimed"})
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

// ---------------------------------------------------------------------
// (d) Open and Close RPCs run outside the table lock
// ---------------------------------------------------------------------

/** Long enough that a call which is not blocked always finishes, even
 *  under TSan on a loaded host. */
constexpr auto kWait = std::chrono::seconds(5);

/**
 * A GpuFs on a bare RpcQueue whose host side is a thread of this
 * fixture. Opens get a fresh host fd and the path's inode at version 1;
 * Closes must name an fd an Open handed out. An Open of a held path
 * waits until the test releases it, and every Open waits at least
 * openDelay, so Opens of different blocks can overlap. A ReadPage on
 * an open fd fills its page with kReadByte, one on any other fd fails
 * with BadFd; while reads are held they wait until the test releases
 * them.
 */
class ScriptedHost
{
  public:
    explicit ScriptedHost(std::chrono::microseconds open_delay =
                              std::chrono::microseconds(0))
        : openDelay_(open_delay), fs_(dev_, queue_, params())
    {
        server_ = std::thread([this] { serve(); });
    }

    ScriptedHost(const ScriptedHost &) = delete;
    ScriptedHost &operator=(const ScriptedHost &) = delete;

    static constexpr uint8_t kReadByte = 0x5a;

    ~ScriptedHost()
    {
        {
            std::lock_guard<std::mutex> lock(mtx_);
            holds_.clear();
            holdReads_ = false;
            stop_ = true;
        }
        server_.join();
    }

    GpuFs &fs() { return fs_; }
    gpu::BlockCtx block(unsigned id) { return test::makeBlock(dev_, id); }

    /** Hold every Open of @p path until releaseOne or release. */
    void
    hold(const std::string &path)
    {
        std::lock_guard<std::mutex> lock(mtx_);
        holds_[path] = 0;
    }

    /** Answer the oldest held Open of @p path. */
    void
    releaseOne(const std::string &path)
    {
        std::lock_guard<std::mutex> lock(mtx_);
        ++holds_[path];
    }

    /** Answer every held Open of @p path and stop holding it. */
    void
    release(const std::string &path)
    {
        std::lock_guard<std::mutex> lock(mtx_);
        holds_.erase(path);
    }

    /** Hold every ReadPage until releaseReads. */
    void
    holdReads()
    {
        std::lock_guard<std::mutex> lock(mtx_);
        holdReads_ = true;
    }

    /** Answer the held ReadPages and stop holding them. */
    void
    releaseReads()
    {
        std::lock_guard<std::mutex> lock(mtx_);
        holdReads_ = false;
    }

    /** Wait until @p n ReadPages are held; false on timeout. */
    bool
    waitReadsHeld(size_t n)
    {
        std::unique_lock<std::mutex> lock(mtx_);
        return cv_.wait_for(lock, kWait,
                            [&] { return heldReads_.size() >= n; });
    }

    /** Host fds named by answered ReadPages, in answer order. */
    std::vector<int>
    readFds() const
    {
        std::lock_guard<std::mutex> lock(mtx_);
        return read_;
    }

    /** Wait until @p n Opens of @p path are held; false on timeout. */
    bool
    waitHeld(const std::string &path, size_t n)
    {
        std::unique_lock<std::mutex> lock(mtx_);
        return cv_.wait_for(lock, kWait, [&] {
            return heldCount(path) >= n;
        });
    }

    unsigned
    opens() const
    {
        std::lock_guard<std::mutex> lock(mtx_);
        return opens_;
    }

    /** Host fds handed out by Opens, in answer order. */
    std::vector<int>
    openedFds() const
    {
        std::lock_guard<std::mutex> lock(mtx_);
        return opened_;
    }

    /** Host fds named by Closes, in arrival order. */
    std::vector<int>
    closedFds() const
    {
        std::lock_guard<std::mutex> lock(mtx_);
        return closed_;
    }

    /** Host fds opened and not (yet) closed, plus Closes of fds that
     *  were never opened or were already closed. */
    size_t
    unbalanced() const
    {
        std::lock_guard<std::mutex> lock(mtx_);
        return live_.size() + badCloses_;
    }

    /** Most Open RPCs the host held at once. */
    size_t
    peakOpensInFlight() const
    {
        std::lock_guard<std::mutex> lock(mtx_);
        return peakInFlight_;
    }

  private:
    struct HeldOpen {
        rpc::RpcSlot *slot;
        std::chrono::steady_clock::time_point arrived;
    };

    static GpuFsParams
    params()
    {
        GpuFsParams p;
        p.pageSize = 4 * KiB;
        p.cacheBytes = 64 * 4 * KiB;
        p.maxOpenFiles = 4;
        return p;
    }

    size_t
    heldCount(const std::string &path) const
    {
        size_t n = 0;
        for (const HeldOpen &h : held_)
            n += path == h.slot->req.path;
        return n;
    }

    /** The host thread: poll, park Opens, answer what may go. */
    void
    serve()
    {
        rpc::RpcSlot *batch[rpc::kQueueSlots];
        for (;;) {
            unsigned n = queue_.pollAll(batch, rpc::kQueueSlots);
            std::vector<std::pair<rpc::RpcSlot *, rpc::RpcResponse>> answers;
            bool done = false;
            {
                std::lock_guard<std::mutex> lock(mtx_);
                const auto now = std::chrono::steady_clock::now();
                for (unsigned i = 0; i < n; ++i) {
                    const rpc::RpcOp op = batch[i]->req.op;
                    if (op == rpc::RpcOp::Open)
                        held_.push_back({batch[i], now});
                    else if (op == rpc::RpcOp::ReadPage && holdReads_)
                        heldReads_.push_back(batch[i]);
                    else
                        answers.push_back({batch[i], answerLocked(*batch[i])});
                }
                if (!holdReads_) {
                    for (rpc::RpcSlot *slot : heldReads_)
                        answers.push_back({slot, answerLocked(*slot)});
                    heldReads_.clear();
                }
                peakInFlight_ = std::max(peakInFlight_, held_.size());
                for (auto it = held_.begin(); it != held_.end();) {
                    auto hold = holds_.find(it->slot->req.path);
                    bool go = now - it->arrived >= openDelay_;
                    if (hold != holds_.end()) {
                        go = go && hold->second > 0;
                        if (go)
                            --hold->second;
                    }
                    if (go) {
                        answers.push_back({it->slot, answerLocked(*it->slot)});
                        it = held_.erase(it);
                    } else {
                        ++it;
                    }
                }
                done = stop_ && held_.empty() && heldReads_.empty();
            }
            cv_.notify_all();
            for (auto &[slot, resp] : answers)
                rpc::RpcQueue::complete(*slot, resp);
            if (done)
                return;
            if (n == 0 && answers.empty())
                std::this_thread::sleep_for(std::chrono::microseconds(20));
        }
    }

    rpc::RpcResponse
    answerLocked(const rpc::RpcSlot &slot)
    {
        const rpc::RpcRequest &req = slot.req;
        rpc::RpcResponse resp;
        resp.done = req.issueTime + 2 * kMicrosecond;
        if (req.op == rpc::RpcOp::Open) {
            auto ino = inos_.emplace(req.path, inos_.size() + 1).first;
            resp.hostFd = nextFd_++;
            resp.ino = ino->second;
            resp.size = 4 * KiB;
            resp.version = 1;
            ++opens_;
            opened_.push_back(resp.hostFd);
            live_.insert(resp.hostFd);
        } else if (req.op == rpc::RpcOp::Close) {
            closed_.push_back(req.hostFd);
            badCloses_ += live_.erase(req.hostFd) == 0;
        } else if (req.op == rpc::RpcOp::ReadPage) {
            read_.push_back(req.hostFd);
            if (live_.count(req.hostFd) == 0) {
                resp.status = Status::BadFd;
            } else {
                std::memset(req.data, kReadByte, req.len);
                resp.bytes = req.len;
                resp.pageDone[0] = resp.done;
            }
        } else {
            resp.status = Status::NotSupported;
        }
        return resp;
    }

    const std::chrono::microseconds openDelay_;
    sim::SimContext sim_;
    gpu::GpuDevice dev_{sim_, 0};
    std::atomic<uint64_t> doorbell_{0};
    rpc::RpcQueue queue_{doorbell_};
    GpuFs fs_;

    mutable std::mutex mtx_;
    std::condition_variable cv_;
    /** Held paths and how many of their Opens may be answered. */
    std::map<std::string, unsigned> holds_;
    std::deque<HeldOpen> held_;
    bool holdReads_ = false;
    std::vector<rpc::RpcSlot *> heldReads_;
    std::map<std::string, uint64_t> inos_;
    int nextFd_ = 100;
    unsigned opens_ = 0;
    std::vector<int> opened_, closed_, read_;
    std::set<int> live_;
    size_t badCloses_ = 0;
    size_t peakInFlight_ = 0;
    bool stop_ = false;
    std::thread server_;
};

/** True once @p done is set, false if @p kWait passes first. */
bool
finishes(const std::atomic<bool> &done)
{
    const auto until = std::chrono::steady_clock::now() + kWait;
    while (!done.load()) {
        if (std::chrono::steady_clock::now() > until)
            return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
}

TEST(OpenOutsideTableLock, OtherBlocksOpenAndCloseWhileAnOpenRpcIsOut)
{
    ScriptedHost host;
    GpuFs &fs = host.fs();
    gpu::BlockCtx ctx_b = host.block(1);
    const int fd_b = fs.gopen(ctx_b, "/b", G_RDONLY);
    ASSERT_GE(fd_b, 0);

    host.hold("/a");
    int fd_a = -1;
    std::thread a([&] {
        gpu::BlockCtx ctx = host.block(0);
        fd_a = fs.gopen(ctx, "/a", G_RDONLY);
    });
    const bool a_held = host.waitHeld("/a", 1);

    // /b is open, so B's gopen takes the fast path and its gclose
    // drops a reference: neither needs the host, only the table.
    std::atomic<bool> b_done{false};
    int fd_b2 = -1;
    Status close_b = Status::Inval;
    std::thread b([&] {
        fd_b2 = fs.gopen(ctx_b, "/b", G_RDONLY);
        close_b = fs.gclose(ctx_b, fd_b2);
        b_done = true;
    });
    const bool b_finished = finishes(b_done);
    host.release("/a");
    a.join();
    b.join();

    ASSERT_TRUE(a_held);
    EXPECT_TRUE(b_finished) << "B's fast-path gopen/gclose waited on A's "
                               "Open RPC";
    EXPECT_EQ(fd_b, fd_b2);
    EXPECT_EQ(Status::Ok, close_b);
    ASSERT_GE(fd_a, 0);
    EXPECT_NE(fd_a, fd_b);
    EXPECT_EQ(Status::Ok, fs.gclose(ctx_b, fd_b));
    EXPECT_EQ(Status::Ok, fs.gclose(ctx_b, fd_a));
    EXPECT_EQ(2u, host.opens());
    EXPECT_EQ(0u, host.unbalanced());
    EXPECT_EQ(0u, fs.hostFdsHeld());
}

TEST(OpenOutsideTableLock, RacingOpensOfOnePathShareOneEntry)
{
    ScriptedHost host;
    GpuFs &fs = host.fs();
    host.hold("/c");
    int fds[2] = {-1, -1};
    std::vector<std::thread> blocks;
    for (unsigned b = 0; b < 2; ++b) {
        blocks.emplace_back([&, b] {
            gpu::BlockCtx ctx = host.block(b);
            fds[b] = fs.gopen(ctx, "/c", G_RDONLY);
        });
    }
    const bool both_out = host.waitHeld("/c", 2);
    host.release("/c");
    for (std::thread &t : blocks)
        t.join();

    EXPECT_TRUE(both_out) << "the second Open waited for the first";
    ASSERT_GE(fds[0], 0);
    EXPECT_EQ(fds[0], fds[1]);
    // The block that lost the race closed its own host fd, and only
    // that one: the entry keeps the other.
    const std::vector<int> opened = host.openedFds();
    ASSERT_EQ(2u, opened.size());
    ASSERT_EQ(1u, host.closedFds().size());
    const int surplus = host.closedFds()[0];
    EXPECT_TRUE(surplus == opened[0] || surplus == opened[1]);
    EXPECT_EQ(1u, fs.hostFdsHeld());

    // refs 2: the first gclose keeps the entry open without the host.
    gpu::BlockCtx ctx = host.block(0);
    GStat st;
    EXPECT_EQ(Status::Ok, fs.gclose(ctx, fds[0]));
    EXPECT_EQ(Status::Ok, fs.gfstat(ctx, fds[0], &st));
    EXPECT_EQ(1u, host.closedFds().size());
    EXPECT_EQ(Status::Ok, fs.gclose(ctx, fds[1]));
    EXPECT_EQ(Status::BadFd, fs.gfstat(ctx, fds[1], &st));
    EXPECT_EQ(2u, host.closedFds().size());
    EXPECT_EQ(0u, host.unbalanced());
    EXPECT_EQ(0u, fs.hostFdsHeld());
}

TEST(OpenOutsideTableLock, RacingWriterOfReadOnlyEntryGetsNotSupported)
{
    ScriptedHost host;
    GpuFs &fs = host.fs();
    host.hold("/d");
    int fd_ro = -1, fd_rw = -1;
    std::thread reader([&] {
        gpu::BlockCtx ctx = host.block(0);
        fd_ro = fs.gopen(ctx, "/d", G_RDONLY);
    });
    const bool reader_out = host.waitHeld("/d", 1);
    std::thread writer([&] {
        gpu::BlockCtx ctx = host.block(1);
        fd_rw = fs.gopen(ctx, "/d", G_RDWR);
    });
    const bool both_out = host.waitHeld("/d", 2);
    // The reader's Open is answered first and installs a read-only
    // entry; the writer then finds it and may not upgrade it.
    host.releaseOne("/d");
    reader.join();
    host.release("/d");
    writer.join();

    ASSERT_TRUE(reader_out);
    EXPECT_TRUE(both_out) << "the writer's Open waited for the reader's";
    ASSERT_GE(fd_ro, 0);
    EXPECT_EQ(-int(Status::NotSupported), fd_rw);
    const std::vector<int> opened = host.openedFds();
    ASSERT_EQ(2u, opened.size());
    // The writer's fd (answered second) is closed; the entry keeps the
    // reader's.
    EXPECT_EQ(std::vector<int>{opened[1]}, host.closedFds());

    gpu::BlockCtx ctx = host.block(0);
    EXPECT_EQ(Status::Ok, fs.gclose(ctx, fd_ro));
    EXPECT_EQ(0u, host.unbalanced());
    EXPECT_EQ(0u, fs.hostFdsHeld());
}

// A reopen must not close the host fd another block's read still
// carries: the host would answer the Close first, and the read would
// then find its fd closed. The entry keeps the replaced fd retired
// until nothing in flight can carry it, and the fd sweep after a
// reclaim closes it. gread's demand fetch goes out split-phase, gmmap's
// on the pin path.
TEST(OpenOutsideTableLock, ReopenKeepsTheFdAnotherBlocksReadCarries)
{
    for (bool mmap : {false, true}) {
        SCOPED_TRACE(mmap ? "gmmap" : "gread");
        ScriptedHost host;
        GpuFs &fs = host.fs();
        gpu::BlockCtx ctx_a = host.block(0);
        const int fd = fs.gopen(ctx_a, "/r", G_RDONLY);
        ASSERT_GE(fd, 0);

        // B's read goes out on the entry's host fd and waits at the
        // host.
        host.holdReads();
        std::vector<uint8_t> buf(64, 0);
        bool read_ok = false;
        std::thread b([&] {
            gpu::BlockCtx ctx = host.block(1);
            if (!mmap) {
                read_ok = fs.gread(ctx, fd, 0, buf.size(), buf.data()) ==
                    int64_t(buf.size());
                return;
            }
            uint64_t mapped = 0;
            void *ptr = fs.gmmap(ctx, fd, 0, buf.size(), &mapped);
            if (ptr) {
                std::memcpy(buf.data(), ptr, buf.size());
                read_ok = fs.gmunmap(ctx, ptr) == Status::Ok;
            }
        });
        const bool read_out = host.waitReadsHeld(1);
        // A's close parks the entry while B's read is out, so it keeps
        // the fd; C's gopen then reuses the parked cache on a new fd.
        EXPECT_EQ(Status::Ok, fs.gclose(ctx_a, fd));
        gpu::BlockCtx ctx_c = host.block(2);
        const int fd_c = fs.gopen(ctx_c, "/r", G_RDONLY);
        const std::vector<int> closed_before_read = host.closedFds();
        host.releaseReads();
        b.join();

        ASSERT_TRUE(read_out);
        EXPECT_EQ(fd, fd_c);
        const std::vector<int> opened = host.openedFds();
        ASSERT_EQ(2u, opened.size());
        EXPECT_EQ(std::vector<int>{opened[0]}, host.readFds());
        EXPECT_TRUE(closed_before_read.empty());
        EXPECT_TRUE(read_ok);
        EXPECT_EQ(ScriptedHost::kReadByte, buf[0]);

        EXPECT_EQ(Status::Ok, fs.gclose(ctx_c, fd_c));
        EXPECT_EQ(std::vector<int>{opened[1]}, host.closedFds());
        fs.bufferCache().reclaimFrames(ctx_c, 1);
        EXPECT_EQ((std::vector<int>{opened[1], opened[0]}),
                  host.closedFds());
        EXPECT_EQ(0u, host.unbalanced());
    }
}

TEST(OpenOutsideTableLock, ConcurrentOpenersCloseEveryHostFd)
{
    // Six paths through a four-entry table: opens join, race, reuse,
    // collect drained entries and recycle, while each Open RPC stays
    // out 200 us so other blocks' Opens overlap it.
    constexpr unsigned kBlocks = 3, kOps = 150, kPaths = 6;
    ScriptedHost host(std::chrono::microseconds(200));
    GpuFs &fs = host.fs();
    std::atomic<unsigned> failures{0};
    std::vector<std::thread> blocks;
    for (unsigned b = 0; b < kBlocks; ++b) {
        blocks.emplace_back([&, b] {
            gpu::BlockCtx ctx = host.block(b);
            SplitMix64 rng(77 + b);
            for (unsigned i = 0; i < kOps; ++i) {
                std::string path =
                    "/e" + std::to_string(rng.nextBelow(kPaths));
                int fd = fs.gopen(ctx, path, G_RDONLY);
                if (fd < 0 || fs.gclose(ctx, fd) != Status::Ok)
                    failures.fetch_add(1);
            }
        });
    }
    for (std::thread &t : blocks)
        t.join();

    EXPECT_EQ(0u, failures.load());
    EXPECT_GE(host.peakOpensInFlight(), 2u)
        << "one block's Open RPC kept the others' out";
    EXPECT_EQ(host.opens(), host.closedFds().size());
    EXPECT_EQ(0u, host.unbalanced());
    EXPECT_EQ(0u, fs.hostFdsHeld());
}

} // namespace
} // namespace core
} // namespace gpufs
