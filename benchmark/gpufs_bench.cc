/**
 * @file
 * gpufs_bench: the repository benchmark (see README.md).
 *
 * One process runs one workload, so peak RSS is per workload. The
 * program generates every input (file bytes, Zipf draws, op mix) from
 * --seed, drives only the public Table-1 API (gopen / gread / gwrite /
 * gclose / gfsync / gmsync), and measures the layers below from
 * outside: StatSet snapshot deltas, sim::Resource busy time of every
 * timeline, and — with --trace — spans recorded around each API call.
 *
 * All loads are closed loop: each GPU block is a caller that issues its
 * next operation only after the previous one returned. A setup builds a
 * fresh machine, installs and warms the inputs and runs one warm-up
 * launch; equal timed launches ("segments") then follow until --seconds
 * of wall time have passed. A workload either sets up kSetups times and
 * keeps the last machine, or (segmentsPerMachine) sets up a new machine
 * every few segments. Per-segment rates are reported as medians,
 * latencies as smoothed quantiles over every timed op.
 *
 * Usage:
 *   gpufs_bench --workload=scan|lookup|ingest|shared [--seed=N]
 *               [--seconds=S] [--smoke] [--trace=FILE] [--json=FILE]
 *
 * Writes one JSON object (all metrics, with units and sample counts) to
 * --json or stdout; exits 3 when any output check failed.
 */

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "gpu/launch.hh"
#include "gpufs/system.hh"
#include "hostfs/content.hh"

using namespace gpufs;

namespace {

// The output checks compare whole 8-byte words with the words
// SyntheticContent::pattern() stores; main() cross-checks them against
// the library's byte view (patternByte) once per run.
static_assert(std::endian::native == std::endian::little,
              "pattern words are compared as little-endian integers");

constexpr unsigned kSetups = 15;         ///< setups per run (setup_s median)
constexpr unsigned kMaxSegments = 1000;
constexpr unsigned kCheckLanes = 14;     ///< random 8-byte lanes per check
constexpr unsigned kThreadsPerBlock = 256;

struct Options {
    std::string workload;
    uint64_t seed = 42;
    double seconds = 10;
    bool smoke = false;
    std::string traceFile;
    std::string jsonFile;
};

int64_t
wallNs()
{
    using namespace std::chrono;
    static const steady_clock::time_point epoch = steady_clock::now();
    return duration_cast<nanoseconds>(steady_clock::now() - epoch).count();
}

// ---------------------------------------------------------------------
// Content: every file byte is a function of a seed and the offset.
// ---------------------------------------------------------------------

uint64_t
patternWord(uint64_t seed, uint64_t lane)
{
    return hashCombine(seed, lane);
}

void
fillPattern(uint8_t *dst, uint64_t file_off, uint64_t len, uint64_t seed)
{
    for (uint64_t i = 0; i < len; i += 8) {
        uint64_t w = patternWord(seed, (file_off + i) / 8);
        std::memcpy(dst + i, &w, 8);
    }
}

/** Sampled check of @p len bytes read from @p file_off against the
 *  pattern of @p seed: first and last lane plus kCheckLanes random ones. */
bool
checkPattern(const uint8_t *buf, uint64_t file_off, uint64_t len,
             uint64_t seed, SplitMix64 &rng)
{
    const uint64_t lanes = len / 8;
    auto lane_ok = [&](uint64_t l) {
        uint64_t w;
        std::memcpy(&w, buf + l * 8, 8);
        return w == patternWord(seed, file_off / 8 + l);
    };
    if (!lane_ok(0) || !lane_ok(lanes - 1))
        return false;
    for (unsigned k = 0; k < kCheckLanes; ++k) {
        if (!lane_ok(rng.nextBelow(lanes)))
            return false;
    }
    return true;
}

bool
installPattern(hostfs::HostFs &fs, const std::string &path, uint64_t seed,
               uint64_t bytes)
{
    Status st = fs.addFile(path, hostfs::SyntheticContent::pattern(seed),
                           bytes);
    if (!ok(st)) {
        std::fprintf(stderr, "addFile(%s): %s\n", path.c_str(),
                     statusName(st));
        return false;
    }
    return true;
}

void
warmHostCache(hostfs::HostFs &fs, const std::string &path)
{
    hostfs::FileInfo info;
    if (ok(fs.stat(path, &info)))
        fs.cache().prefault(info.ino, 0, info.size);
}

// ---------------------------------------------------------------------
// Per-block measurement: op latencies, counts, and trace spans.
// ---------------------------------------------------------------------

enum Call : uint8_t {
    kOp, kGopen, kGread, kGwrite, kGclose, kGfsync, kGmsync, kNumCalls
};
constexpr const char *kCallName[kNumCalls] = {
    "op", "gopen", "gread", "gwrite", "gclose", "gfsync", "gmsync"};

/** One span: the workload op (root) or an API call inside it. */
struct Span {
    uint64_t id;
    uint64_t parent;    ///< 0 for roots and calls outside any op
    Time v0, v1;        ///< block virtual clock at start / end
    int64_t w0, w1;     ///< steady_clock ns at start / end
    Call call;
};

/** Measurements of one GPU block. Only the thread running that block
 *  touches it during a launch. */
struct BlockRec {
    unsigned gpu = 0;
    unsigned block = 0;
    bool timed = false;     ///< false during warm-up launches
    bool tracing = false;

    uint64_t attempted = 0; ///< every op, warm-up included
    uint64_t failed = 0;
    uint64_t ops = 0;       ///< timed ops
    uint64_t bytesRead = 0;
    uint64_t bytesWritten = 0;
    std::vector<Time> opLat;
    std::vector<Span> spans;

    Time launchStart = 0;   ///< virtual clock over the last launch
    Time launchEnd = 0;
    int64_t tracedWallNs = 0;   ///< block wall time of traced launches

    SplitMix64 rng{0};
    std::vector<uint8_t> buf;
    std::vector<uint8_t> buf2;

    void
    beginOp(const gpu::BlockCtx &ctx)
    {
        opV0 = ctx.now();
        inOp = true;
        if (tracing) {
            opId = newId();
            opW0 = wallNs();
        }
    }

    /** Close the op. Its latency is the op's own span unless
     *  @p own_latency is false (the workload reports it via
     *  addLatency, e.g. ingest's time-to-durable). */
    void
    endOp(const gpu::BlockCtx &ctx, bool good, uint64_t rd, uint64_t wr,
          bool own_latency = true)
    {
        inOp = false;
        ++attempted;
        failed += good ? 0 : 1;
        if (!timed)
            return;
        ++ops;
        bytesRead += rd;
        bytesWritten += wr;
        if (own_latency)
            opLat.push_back(ctx.now() - opV0);
        if (tracing)
            spans.push_back({opId, 0, opV0, ctx.now(), opW0, wallNs(), kOp});
    }

    void
    addLatency(Time t)
    {
        if (timed)
            opLat.push_back(t);
    }

    /** A failure outside any op (gopen / gclose around a batch). */
    void
    fail()
    {
        ++attempted;
        ++failed;
    }

    /** Run one API call, recording a span around it when tracing. */
    template <typename F>
    auto
    api(const gpu::BlockCtx &ctx, Call call, F &&f)
    {
        if (!tracing)
            return f();
        Time v0 = ctx.now();
        int64_t w0 = wallNs();
        auto r = f();
        spans.push_back({newId(), inOp ? opId : 0, v0, ctx.now(), w0,
                         wallNs(), call});
        return r;
    }

    Time opStart() const { return opV0; }

  private:
    bool inOp = false;
    uint64_t nextId = 1;
    uint64_t opId = 0;
    Time opV0 = 0;
    int64_t opW0 = 0;

    uint64_t
    newId()
    {
        return (uint64_t(gpu) << 56) | (uint64_t(block) << 40) | nextId++;
    }
};

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

class Workload
{
  public:
    Workload(const Options &o, unsigned gpus, unsigned blocks_per_gpu,
             uint64_t buf_bytes)
        : opt(o), gpus_(gpus), blocksPerGpu_(blocks_per_gpu)
    {
        rec.resize(gpus * blocks_per_gpu);
        for (unsigned i = 0; i < rec.size(); ++i) {
            rec[i].gpu = i / blocks_per_gpu;
            rec[i].block = i % blocks_per_gpu;
            rec[i].buf.resize(buf_bytes);
            rec[i].buf2.resize(buf_bytes);
        }
    }
    virtual ~Workload() = default;

    Workload(const Workload &) = delete;
    Workload &operator=(const Workload &) = delete;

    /** Fresh machine, inputs installed and warmed, one warm-up launch. */
    virtual bool setup() = 0;
    /** One launch: a timed segment, or the warm-up when !timed. */
    virtual void launch(bool timed) = 0;
    /** Timed launches per machine; 0 = one machine runs them all. */
    virtual unsigned segmentsPerMachine() const { return 0; }
    /** Checks after each timed launch (ingest reads its files back). */
    virtual void afterSegment() {}

    core::GpufsSystem &system() { return *sys_; }

    std::vector<BlockRec> rec;

  protected:
    using Body = std::function<void(core::GpuFs &, gpu::BlockCtx &,
                                    BlockRec &)>;

    Options opt;
    std::unique_ptr<core::GpufsSystem> sys_;

    /** Replace the machine; the old one is torn down first, so two
     *  never hold memory at once. */
    void
    newSystem(const core::GpuFsParams &p)
    {
        sys_.reset();
        sys_ = std::make_unique<core::GpufsSystem>(gpus_, p);
    }

    /**
     * Run @p body on every block of every GPU. GPUs launch concurrently
     * (one host thread each) from a common virtual ready time, so their
     * clocks stay aligned across segments. Block inputs are seeded by
     * (seed, launch index, block).
     */
    void
    launchAll(const Body &body)
    {
        core::GpufsSystem &sys = *sys_;
        Time ready = 0;
        for (unsigned g = 0; g < gpus_; ++g)
            ready = std::max(ready, sys.device(g).lastIdle());
        const uint64_t launch_seed = hashCombine(opt.seed, ++launches_);
        auto run_gpu = [&](unsigned g) {
            gpu::launch(sys.device(g), blocksPerGpu_, kThreadsPerBlock,
                        [&](gpu::BlockCtx &ctx) {
                BlockRec &r = rec[g * blocksPerGpu_ + ctx.blockId()];
                r.rng = SplitMix64(hashCombine(launch_seed,
                                               g * 64 + ctx.blockId()));
                r.launchStart = ctx.now();
                int64_t w0 = wallNs();
                body(sys.fs(g), ctx, r);
                r.launchEnd = ctx.now();
                if (r.tracing)
                    r.tracedWallNs += wallNs() - w0;
            }, ready);
        };
        if (gpus_ == 1) {
            run_gpu(0);
            return;
        }
        std::vector<std::thread> threads;
        for (unsigned g = 0; g < gpus_; ++g)
            threads.emplace_back(run_gpu, g);
        for (auto &t : threads)
            t.join();
    }

  private:
    unsigned gpus_;
    unsigned blocksPerGpu_;
    uint64_t launches_ = 0;
};

/** Longest record of the sequential scans. */
constexpr uint64_t kMaxRecord = 128 * KiB;

/**
 * One block's sequential scan of @p n variable-length records (seeded,
 * 8-byte multiples in [32, 128] KB) from the extent [base, base +
 * extent) of @p path, continuing at @p cursor and wrapping at the end.
 * Each record is one gread: the first record entering a page waits for
 * it, the rest of the page's records hit.
 */
void
scanRecords(core::GpuFs &fs, gpu::BlockCtx &ctx, BlockRec &r,
            const char *path, uint64_t file_seed, uint64_t base,
            uint64_t extent, uint64_t &cursor, unsigned n)
{
    int fd = r.api(ctx, kGopen, [&] {
        return fs.gopen(ctx, path, core::G_RDONLY);
    });
    if (fd < 0) {
        r.fail();
        return;
    }
    constexpr uint64_t kMinRecord = 32 * KiB;
    constexpr uint64_t kLengths = (kMaxRecord - kMinRecord) / 8 + 1;
    for (unsigned i = 0; i < n; ++i) {
        const uint64_t len =
            std::min(kMinRecord + 8 * r.rng.nextBelow(kLengths),
                     extent - cursor);
        const uint64_t off = base + cursor;
        cursor = (cursor + len) % extent;
        r.beginOp(ctx);
        int64_t got = r.api(ctx, kGread, [&] {
            return fs.gread(ctx, fd, off, len, r.buf.data());
        });
        bool good = got == int64_t(len) &&
            checkPattern(r.buf.data(), off, len, file_seed, r.rng);
        r.endOp(ctx, good, got > 0 ? uint64_t(got) : 0, 0);
    }
    Status st = r.api(ctx, kGclose, [&] { return fs.gclose(ctx, fd); });
    if (!ok(st))
        r.fail();
}

/**
 * scan: 3 blocks stream disjoint thirds of one 1.5 GB file of 256 KB
 * pages, warm in the host page cache, through a 64 MB arena (buffered
 * backend, adaptive read-ahead). The daemon's serialized CPU I/O path
 * is the bottleneck.
 */
class ScanWorkload : public Workload
{
  public:
    static constexpr uint64_t kPage = 256 * KiB;
    static constexpr unsigned kBlocks = 3;
    static constexpr char kPath[] = "/bench/scan.bin";

    explicit ScanWorkload(const Options &o)
        : Workload(o, 1, kBlocks, kMaxRecord),
          third_((o.smoke ? 32 : 2048) * kPage),
          perSegment_(o.smoke ? 100 : 3000),
          fileSeed_(hashCombine(o.seed, 0x5ca9))
    {
    }

    bool
    setup() override
    {
        core::GpuFsParams p;
        p.pageSize = kPage;
        p.cacheBytes = (opt.smoke ? 4 : 64) * MiB;
        newSystem(p);
        if (!installPattern(sys_->hostFs(), kPath, fileSeed_,
                            kBlocks * third_))
            return false;
        warmHostCache(sys_->hostFs(), kPath);
        cursor_.fill(0);
        launch(false);
        return true;
    }

    void
    launch(bool timed) override
    {
        const unsigned n = timed ? perSegment_ : perSegment_ / 4;
        launchAll([&](core::GpuFs &fs, gpu::BlockCtx &ctx, BlockRec &r) {
            scanRecords(fs, ctx, r, kPath, fileSeed_, r.block * third_,
                        third_, cursor_[r.block], n);
        });
    }

  private:
    const uint64_t third_;
    const unsigned perSegment_;
    const uint64_t fileSeed_;
    std::array<uint64_t, kBlocks> cursor_{};
};

/**
 * lookup: 3 blocks, Zipf(0.99) point lookups over 4096 four-page files
 * of 16 KB pages (256 MB) through an 8 MB arena, `direct` backend with
 * a 2048-page host-RAM victim tier. Each op is gopen + a gread of a
 * seeded 4-16 KB extent of one page + gclose. Every tenth file in
 * popularity order is mutable: always opened G_RDWR, and half of its
 * ops rewrite the whole page with a new version and gfsync. The seed
 * draws the ops and maps popularity ranks to files.
 *
 * The paper-tiered policy evicts files in the order they entered the
 * cache, so which hot files stay resident depends on the first opens:
 * one machine settles at a hit ratio anywhere in ~0.13-0.22. A run
 * therefore spreads its segments over several machines.
 */
class LookupWorkload : public Workload
{
  public:
    static constexpr uint64_t kPage = 16 * KiB;
    static constexpr unsigned kFilePages = 4;
    static constexpr unsigned kBlocks = 3;
    static constexpr unsigned kStripes = 64;

    explicit LookupWorkload(const Options &o)
        : Workload(o, 1, kBlocks, kPage),
          files_(o.smoke ? 256 : 4096),
          perSegment_(o.smoke ? 200 : 1000),
          warmOps_(o.smoke ? 200 : 1500)
    {
        for (unsigned f = 0; f < files_; ++f)
            paths_.push_back("/bench/lookup/f" + std::to_string(f));
        // Zipf(0.99) over popularity ranks; a seeded permutation maps
        // ranks to files, so each seed has its own hot set.
        double sum = 0;
        for (unsigned i = 0; i < files_; ++i) {
            sum += 1.0 / std::pow(double(i + 1), 0.99);
            cdf_.push_back(sum);
        }
        for (auto &c : cdf_)
            c /= sum;
        rankToFile_.resize(files_);
        for (unsigned i = 0; i < files_; ++i)
            rankToFile_[i] = i;
        SplitMix64 rng(hashCombine(o.seed, 0x1001));
        for (unsigned i = files_ - 1; i > 0; --i)
            std::swap(rankToFile_[i], rankToFile_[rng.nextBelow(i + 1)]);
    }

    unsigned segmentsPerMachine() const override { return 4; }

    bool
    setup() override
    {
        core::GpuFsParams p;
        p.pageSize = kPage;
        p.cacheBytes = (opt.smoke ? 1 : 8) * MiB;
        p.storageBackend = storage::BackendKind::Direct;
        p.victimCachePages = opt.smoke ? 256 : 2048;
        // Every file keeps its closed entry: no table recycling.
        p.maxOpenFiles = files_ + 16;
        newSystem(p);
        for (unsigned f = 0; f < files_; ++f) {
            if (!installPattern(sys_->hostFs(), paths_[f], fileSeed(f),
                                kFilePages * kPage))
                return false;
        }
        version_.assign(size_t(files_) * kFilePages, 0);
        launch(false);
        return true;
    }

    void
    launch(bool timed) override
    {
        const unsigned n = timed ? perSegment_ : warmOps_;
        launchAll([&](core::GpuFs &fs, gpu::BlockCtx &ctx, BlockRec &r) {
            for (unsigned i = 0; i < n; ++i)
                lookupOp(fs, ctx, r);
        });
    }

  private:
    const unsigned files_;
    const unsigned perSegment_;
    const unsigned warmOps_;
    std::vector<std::string> paths_;
    std::vector<double> cdf_;
    std::vector<unsigned> rankToFile_;
    /** Current version of each mutable page; guarded by its stripe. */
    std::vector<uint32_t> version_;
    /** Application-level exclusion for mutable files: GPUfs leaves
     *  coordinating concurrent updates of one page to the program. */
    std::array<std::mutex, kStripes> stripes_;

    uint64_t fileSeed(unsigned f) const
    {
        return hashCombine(opt.seed, 0x10000 + f);
    }

    uint64_t
    contentSeed(unsigned f, uint32_t version) const
    {
        return version == 0 ? fileSeed(f)
                            : hashCombine(fileSeed(f), version);
    }

    void
    lookupOp(core::GpuFs &fs, gpu::BlockCtx &ctx, BlockRec &r)
    {
        const double u = r.rng.nextDouble();
        const unsigned rank = std::min(
            unsigned(std::lower_bound(cdf_.begin(), cdf_.end(), u) -
                     cdf_.begin()),
            files_ - 1);
        const unsigned f = rankToFile_[rank];
        const unsigned pg = unsigned(r.rng.nextBelow(kFilePages));
        // Every tenth file in popularity order (ranks 3, 13, 23, ...) is
        // mutable, so the update share (~5% of ops) is the same for
        // every seed. One open mode per file: upgrading a shared
        // read-only descriptor is NotSupported.
        const bool mutable_file = rank % 10 == 3;
        const bool update = mutable_file && (r.rng.next() & 1);
        std::unique_lock<std::mutex> lock;
        if (mutable_file)
            lock = std::unique_lock<std::mutex>(stripes_[f % kStripes]);

        r.beginOp(ctx);
        bool good = false;
        uint64_t rd = 0, wr = 0;
        const uint32_t flags = mutable_file ? core::G_RDWR : core::G_RDONLY;
        int fd = r.api(ctx, kGopen, [&] {
            return fs.gopen(ctx, paths_[f], flags);
        });
        if (fd >= 0) {
            const uint64_t off = pg * kPage;
            uint32_t &ver = version_[size_t(f) * kFilePages + pg];
            if (update) {
                fillPattern(r.buf.data(), off, kPage, contentSeed(f, ver + 1));
                int64_t n = r.api(ctx, kGwrite, [&] {
                    return fs.gwrite(ctx, fd, off, kPage, r.buf.data());
                });
                if (n == int64_t(kPage)) {
                    ++ver;
                    wr = kPage;
                }
                Status st = r.api(ctx, kGfsync, [&] {
                    return fs.gfsync(ctx, fd);
                });
                good = wr == kPage && ok(st);
            } else {
                const uint64_t len =
                    4 * KiB + 8 * r.rng.nextBelow((kPage - 4 * KiB) / 8 + 1);
                const uint64_t at =
                    off + 8 * r.rng.nextBelow((kPage - len) / 8 + 1);
                int64_t n = r.api(ctx, kGread, [&] {
                    return fs.gread(ctx, fd, at, len, r.buf.data());
                });
                rd = n > 0 ? uint64_t(n) : 0;
                good = n == int64_t(len) &&
                    checkPattern(r.buf.data(), at, len,
                                 contentSeed(f, ver), r.rng);
            }
            Status st = r.api(ctx, kGclose, [&] {
                return fs.gclose(ctx, fd);
            });
            good = good && ok(st);
        }
        r.endOp(ctx, good, rd, wr);
    }
};

/**
 * ingest: each segment is an epoch on a fresh machine with the
 * write-ahead journal on. 3 blocks append 64 KB records to their own
 * G_GDURABLE 8 MB ring file (the three rings exceed the 16 MB arena)
 * and gmsync every 32 records, reading the acknowledged record back
 * through the cache. An op's latency is its record's time to durable:
 * gwrite start to the end of the gmsync that covers it. After the epoch
 * the host files are read back and checked.
 *
 * Epochs exist because the journal only checkpoints when the daemon
 * stops, so it grows with every record until then. Its host copy is one
 * buffer that doubles as it grows; an epoch writes ~44 MB of journal,
 * well between two doublings, so peak RSS does not depend on whether
 * the last doubling lands inside the epoch.
 */
class IngestWorkload : public Workload
{
  public:
    static constexpr uint64_t kRecord = 64 * KiB;
    static constexpr unsigned kBlocks = 3;
    static constexpr unsigned kSyncEvery = 32;

    explicit IngestWorkload(const Options &o)
        : Workload(o, 1, kBlocks, kRecord),
          slots_(o.smoke ? 64 : 128),
          warmRecords_(kSyncEvery * (o.smoke ? 1 : 2)),
          epochRecords_(kSyncEvery * (o.smoke ? 2 : 5))
    {
    }

    unsigned segmentsPerMachine() const override { return 1; }

    bool
    setup() override
    {
        core::GpuFsParams p;
        p.pageSize = kRecord;
        // Room for every block's unsynced batch (3 x 32 dirty pages):
        // with less, writes fail with NoSpace when the host CPUs are
        // busy.
        p.cacheBytes = (opt.smoke ? 8 : 16) * MiB;
        p.journalWriteback = true;
        newSystem(p);
        ++epoch_;
        for (unsigned b = 0; b < kBlocks; ++b) {
            if (!installPattern(sys_->hostFs(), ringPath(b), ringSeed(b),
                                slots_ * kRecord))
                return false;
        }
        next_.fill(0);
        launch(false);
        return true;
    }

    void
    launch(bool timed) override
    {
        const unsigned n = timed ? epochRecords_ : warmRecords_;
        launchAll([&](core::GpuFs &fs, gpu::BlockCtx &ctx, BlockRec &r) {
            const unsigned b = r.block;
            int fd = r.api(ctx, kGopen, [&] {
                return fs.gopen(ctx, ringPath(b),
                                core::G_RDWR | core::G_GDURABLE);
            });
            if (fd < 0) {
                r.fail();
                return;
            }
            for (unsigned i = 0; i < n; ++i)
                appendOp(fs, ctx, r, fd, next_[b]++);
            Status st = r.api(ctx, kGclose, [&] {
                return fs.gclose(ctx, fd);
            });
            if (!ok(st))
                r.fail();
        });
    }

    /** Read every ring slot back from the host file: each must hold the
     *  last record appended to it (gmsync acknowledged all of them). */
    void
    afterSegment() override
    {
        hostfs::HostFs &host = sys_->hostFs();
        for (unsigned b = 0; b < kBlocks; ++b) {
            BlockRec &r = rec[b];
            int hfd = host.open(ringPath(b), hostfs::O_RDONLY_F);
            if (hfd < 0) {
                r.fail();
                continue;
            }
            for (unsigned s = 0; s < slots_; ++s) {
                const uint64_t off = uint64_t(s) * kRecord;
                hostfs::IoResult res =
                    host.pread(hfd, r.buf.data(), kRecord, off);
                uint64_t seed = ringSeed(b);
                if (next_[b] > s) {
                    uint64_t last = s + (next_[b] - 1 - s) / slots_ * slots_;
                    seed = recordSeed(b, last);
                }
                if (!ok(res.status) || res.bytes != kRecord ||
                    !checkPattern(r.buf.data(), off, kRecord, seed, r.rng))
                    r.fail();
            }
            host.close(hfd);
        }
    }

  private:
    const unsigned slots_;
    const unsigned warmRecords_;
    const unsigned epochRecords_;
    uint64_t epoch_ = 0;
    std::array<uint64_t, kBlocks> next_{};  ///< next record per block
    /** Virtual start of each record of the open batch, per block. */
    std::array<std::array<Time, kSyncEvery>, kBlocks> batchStart_{};

    static std::string
    ringPath(unsigned b)
    {
        return "/bench/ingest/ring" + std::to_string(b);
    }

    uint64_t
    ringSeed(unsigned b) const
    {
        return hashCombine(hashCombine(opt.seed, 0x20000 + b), epoch_);
    }

    uint64_t
    recordSeed(unsigned b, uint64_t record) const
    {
        return hashCombine(ringSeed(b), 0x30000 + record);
    }

    /** Records are appended in whole batches, so every record's
     *  covering gmsync runs in the same launch. */
    void
    appendOp(core::GpuFs &fs, gpu::BlockCtx &ctx, BlockRec &r, int fd,
             uint64_t record)
    {
        const uint64_t off = (record % slots_) * kRecord;
        const uint64_t seed = recordSeed(r.block, record);
        r.beginOp(ctx);
        batchStart_[r.block][record % kSyncEvery] = r.opStart();
        fillPattern(r.buf.data(), off, kRecord, seed);
        int64_t n = r.api(ctx, kGwrite, [&] {
            return fs.gwrite(ctx, fd, off, kRecord, r.buf.data());
        });
        bool good = n == int64_t(kRecord);
        uint64_t rd = 0;
        if ((record + 1) % kSyncEvery == 0) {
            Status st = r.api(ctx, kGmsync, [&] {
                return fs.gmsync(ctx, fd);
            });
            for (Time start : batchStart_[r.block])
                r.addLatency(ctx.now() - start);
            int64_t m = r.api(ctx, kGread, [&] {
                return fs.gread(ctx, fd, off, kRecord, r.buf2.data());
            });
            rd = m > 0 ? uint64_t(m) : 0;
            good = good && ok(st) && m == int64_t(kRecord) &&
                checkPattern(r.buf2.data(), off, kRecord, seed, r.rng);
        }
        r.endOp(ctx, good, rd, good ? kRecord : 0, /*own_latency=*/false);
    }
};

/**
 * shared: 2 GPUs with HashPageGroup sharding, one block each, both
 * scanning one 192 MB file of 256 KB pages, warm in the host page
 * cache, through 128 MB arenas (1.5x one arena; fits the two combined).
 * Non-owner misses go to the owner GPU over P2P; most reads are hits.
 */
class SharedWorkload : public Workload
{
  public:
    static constexpr uint64_t kPage = 256 * KiB;
    static constexpr unsigned kGpus = 2;
    static constexpr char kPath[] = "/bench/shared.bin";

    explicit SharedWorkload(const Options &o)
        : Workload(o, kGpus, 1, kMaxRecord),
          bytes_((o.smoke ? 48 : 768) * kPage),
          perSegment_(o.smoke ? 300 : 1200),
          fileSeed_(hashCombine(o.seed, 0x54a7))
    {
    }

    bool
    setup() override
    {
        core::GpuFsParams p;
        p.pageSize = kPage;
        p.cacheBytes = bytes_ * 2 / 3;
        p.shardPolicy = core::ShardPolicy::HashPageGroup;
        newSystem(p);
        if (!installPattern(sys_->hostFs(), kPath, fileSeed_, bytes_))
            return false;
        warmHostCache(sys_->hostFs(), kPath);
        // GPUs start half a file apart: each first reads the half the
        // other reads second.
        for (unsigned g = 0; g < kGpus; ++g)
            cursor_[g] = bytes_ / kGpus * g;
        launch(false);
        return true;
    }

    void
    launch(bool timed) override
    {
        // The warm-up is one full pass (records average 80 KB).
        const unsigned n = timed ? perSegment_
                                 : unsigned(bytes_ / (80 * KiB));
        launchAll([&](core::GpuFs &fs, gpu::BlockCtx &ctx, BlockRec &r) {
            scanRecords(fs, ctx, r, kPath, fileSeed_, 0, bytes_,
                        cursor_[r.gpu], n);
        });
    }

  private:
    const uint64_t bytes_;
    const unsigned perSegment_;
    const uint64_t fileSeed_;
    std::array<uint64_t, kGpus> cursor_{};
};

std::unique_ptr<Workload>
makeWorkload(const Options &o)
{
    if (o.workload == "scan")
        return std::make_unique<ScanWorkload>(o);
    if (o.workload == "lookup")
        return std::make_unique<LookupWorkload>(o);
    if (o.workload == "ingest")
        return std::make_unique<IngestWorkload>(o);
    if (o.workload == "shared")
        return std::make_unique<SharedWorkload>(o);
    return nullptr;
}

// ---------------------------------------------------------------------
// Counter and timeline snapshots
// ---------------------------------------------------------------------

using Snap = std::map<std::string, double>;

Snap
snapshot(core::GpufsSystem &sys)
{
    Snap s;
    auto add = [&](const std::string &prefix, const StatSet &set) {
        for (const auto &kv : set.snapshot())
            s[prefix + kv.first] += double(kv.second);
    };
    sim::SimContext &sim = sys.sim();
    for (unsigned g = 0; g < sys.numGpus(); ++g) {
        add("gpu.", sys.fs(g).stats());
        rpc::RpcQueue &q = sys.rpcQueue(g);
        s["queue.submissions"] += double(q.submissions());
        s["queue.full_stalls"] += double(q.fullQueueStalls());
        s["queue.rings_suppressed"] += double(q.doorbellRingsSuppressed());
        s["queue.max_inflight"] = std::max(s["queue.max_inflight"],
                                           double(q.maxInFlightSlots()));
        gpu::GpuDevice &dev = sys.device(g);
        s["busy.pcie_h2d"] += double(dev.pcieH2D().busyTime());
        s["busy.pcie_d2h"] += double(dev.pcieD2H().busyTime());
        s["busy.host_stage"] += double(sim.hostStage(g).busyTime());
        for (unsigned h = 0; h < sys.numGpus(); ++h) {
            if (h != g)
                s["busy.p2p"] += double(sim.p2p(g, h).busyTime());
        }
    }
    add("daemon.", sys.daemon().stats());
    add("pagecache.", sys.hostFs().cache().stats());
    s["busy.cpu_io"] = double(sim.cpuIo.busyTime());
    s["busy.disk"] = double(sim.disk.busyTime());
    return s;
}

// ---------------------------------------------------------------------
// Statistics and output
// ---------------------------------------------------------------------

/** Linear-interpolated median; 0 for no samples. */
double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    double pos = 0.5 * double(v.size() - 1);
    size_t lo = size_t(pos);
    size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

/**
 * Smoothed quantile (p in [0.5, 1)): the mean of the samples ranked
 * within p +- (1 - p) / 10 — the middle 10% for p50, +-0.1% of ranks
 * for p99. Virtual latencies sit on a 1 ns grid and many ops cost
 * exactly the same, so a single order statistic jumps between grid
 * values; the local mean moves smoothly. 0 for no samples.
 */
double
quantile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double last = double(v.size() - 1);
    const double d = (1 - p) / 10;
    const size_t lo = size_t(std::floor((p - d) * last));
    const size_t hi = size_t(std::ceil((p + d) * last));
    double sum = 0;
    for (size_t i = lo; i <= hi; ++i)
        sum += v[i];
    return sum / double(hi - lo + 1);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

struct Metric {
    std::string name;
    double value;
    std::string unit;
    uint64_t samples;
};

struct Segment {
    double spanS = 0;       ///< virtual span
    double wallS = 0;       ///< wall time of the launch
    uint64_t ops = 0;
    uint64_t bytes = 0;
    double skew = 1;        ///< max/min block virtual elapsed
    bool traced = false;
};

double
peakRssMB()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;   // Linux reports KiB
}

/**
 * One timed launch: counter and timeline deltas are added to @p total
 * (max-in-flight is a high-water mark, so it takes the max instead).
 */
Segment
runSegment(Workload &w, bool traced, Snap &total)
{
    Segment seg;
    seg.traced = traced;
    std::vector<uint64_t> ops0, bytes0;
    for (BlockRec &r : w.rec) {
        r.timed = true;
        r.tracing = traced;
        ops0.push_back(r.ops);
        bytes0.push_back(r.bytesRead + r.bytesWritten);
    }
    Snap before = snapshot(w.system());
    int64_t t0 = wallNs();
    w.launch(true);
    seg.wallS = double(wallNs() - t0) / 1e9;
    Snap after = snapshot(w.system());
    for (const auto &kv : after) {
        if (kv.first == "queue.max_inflight")
            total[kv.first] = std::max(total[kv.first], kv.second);
        else
            total[kv.first] += kv.second - before[kv.first];
    }
    Time start = UINT64_MAX, end = 0;
    double lo = 1e300, hi = 0;
    for (size_t i = 0; i < w.rec.size(); ++i) {
        BlockRec &r = w.rec[i];
        r.timed = r.tracing = false;
        seg.ops += r.ops - ops0[i];
        seg.bytes += r.bytesRead + r.bytesWritten - bytes0[i];
        start = std::min(start, r.launchStart);
        end = std::max(end, r.launchEnd);
        double el = double(r.launchEnd - r.launchStart);
        lo = std::min(lo, el);
        hi = std::max(hi, el);
    }
    seg.spanS = double(end - start) / 1e9;
    seg.skew = ratio(hi, lo);
    return seg;
}

bool
writeTrace(const std::string &path, const std::vector<BlockRec> &rec)
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    for (const BlockRec &r : rec) {
        for (const Span &s : r.spans) {
            std::fprintf(f,
                         "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                         "\"gpu\":%u,\"block\":%u,\"v_start_ns\":%llu,"
                         "\"v_end_ns\":%llu,\"wall_start_ns\":%lld,"
                         "\"wall_end_ns\":%lld}\n",
                         kCallName[s.call],
                         static_cast<unsigned long long>(s.id),
                         static_cast<unsigned long long>(s.parent), r.gpu,
                         r.block, static_cast<unsigned long long>(s.v0),
                         static_cast<unsigned long long>(s.v1),
                         static_cast<long long>(s.w0),
                         static_cast<long long>(s.w1));
        }
    }
    return std::fclose(f) == 0;
}

/** Per-layer metrics from the summed counter deltas, timelines, spans. */
void
layerMetrics(std::vector<Metric> &m, const Snap &d,
             const std::vector<Segment> &segs,
             const std::vector<BlockRec> &rec, unsigned gpus)
{
    auto get = [&](const std::string &k) {
        auto it = d.find(k);
        return it == d.end() ? 0.0 : it->second;
    };
    double ops = 0, span_ns = 0, user_rd = 0, user_wr = 0;
    std::vector<double> spans_s, skews;
    for (const Segment &s : segs) {
        ops += double(s.ops);
        span_ns += s.spanS * 1e9;
        spans_s.push_back(s.spanS);
        skews.push_back(s.skew);
    }
    for (const BlockRec &r : rec) {
        user_rd += double(r.bytesRead);
        user_wr += double(r.bytesWritten);
    }
    const uint64_t n_ops = uint64_t(ops);
    const uint64_t n_seg = segs.size();

    // gpufs.api: spans around each call (traced segments only). A
    // call's virtual cost is mostly a constant of the cost model, so
    // virtual time is reported per workload op (frequency x cost);
    // wall time, which the host really spends, as a median per call.
    std::vector<double> v[kNumCalls], w[kNumCalls];
    double v_sum[kNumCalls] = {};
    double api_wall = 0, block_wall = 0;
    for (const BlockRec &r : rec) {
        block_wall += double(r.tracedWallNs);
        for (const Span &s : r.spans) {
            v[s.call].push_back(double(s.v1 - s.v0) / 1e3);
            w[s.call].push_back(double(s.w1 - s.w0) / 1e3);
            v_sum[s.call] += double(s.v1 - s.v0) / 1e3;
            if (s.call != kOp)
                api_wall += double(s.w1 - s.w0);
        }
    }
    const double traced_ops = double(v[kOp].size());
    auto api = [&](Call c, const char *stat, double value,
                   const std::vector<double> &from) {
        m.push_back({std::string("gpufs.api.") + kCallName[c] + "." + stat,
                     value, "us", from.size()});
    };
    api(kGopen, "v_us_per_op", ratio(v_sum[kGopen], traced_ops), v[kGopen]);
    api(kGopen, "wall_p50_us", median(w[kGopen]), w[kGopen]);
    api(kGread, "v_us_per_op", ratio(v_sum[kGread], traced_ops), v[kGread]);
    api(kGread, "v_p99_us", quantile(v[kGread], 0.99), v[kGread]);
    api(kGread, "wall_p50_us", median(w[kGread]), w[kGread]);
    api(kGwrite, "v_us_per_op", ratio(v_sum[kGwrite], traced_ops),
        v[kGwrite]);
    api(kGwrite, "wall_p50_us", median(w[kGwrite]), w[kGwrite]);
    api(kGclose, "wall_p50_us", median(w[kGclose]), w[kGclose]);
    api(kGfsync, "v_p99_us", quantile(v[kGfsync], 0.99), v[kGfsync]);
    api(kGmsync, "v_p99_us", quantile(v[kGmsync], 0.99), v[kGmsync]);
    m.push_back({"gpufs.api.wall_in_api_frac", ratio(api_wall, block_wall),
                 "ratio", v[kOp].size()});

    // gpufs.buffer_cache
    const double hits = get("gpu.cache_hits");
    const double misses = get("gpu.cache_misses");
    const double read_pages = get("gpu.read_rpcs") +
        get("gpu.batch_read_pages") + get("gpu.peer_pages_forwarded") +
        get("gpu.peer_pages_fallback");
    const double read_rpcs = get("gpu.read_rpcs") +
        get("gpu.batch_read_rpcs") + get("gpu.peer_read_rpcs");
    const double write_pages = get("gpu.writeback_rpcs") +
        get("gpu.batch_write_pages");
    const double write_rpcs = get("gpu.writeback_rpcs") +
        get("gpu.batch_write_rpcs");
    const std::string bc = "gpufs.buffer_cache.";
    m.push_back({bc + "hit_ratio", ratio(hits, hits + misses), "ratio",
                 uint64_t(hits + misses)});
    m.push_back({bc + "misses_per_op", ratio(misses, ops), "count/op",
                 n_ops});
    m.push_back({bc + "lockfree_ratio",
                 ratio(get("gpu.lockfree_accesses"),
                       get("gpu.lockfree_accesses") +
                           get("gpu.locked_accesses")),
                 "ratio", n_ops});
    m.push_back({bc + "pages_reclaimed_per_op",
                 ratio(get("gpu.pages_reclaimed"), ops), "count/op", n_ops});
    m.push_back({bc + "pages_per_read_rpc", ratio(read_pages, read_rpcs),
                 "pages/rpc", uint64_t(read_rpcs)});
    m.push_back({bc + "ra_useful_ratio",
                 ratio(get("gpu.ra_hit"), get("gpu.ra_issued")), "ratio",
                 uint64_t(get("gpu.ra_issued"))});
    m.push_back({bc + "ra_wasted", get("gpu.ra_wasted"), "count", n_seg});
    m.push_back({bc + "pages_per_write_rpc", ratio(write_pages, write_rpcs),
                 "pages/rpc", uint64_t(write_rpcs)});

    // gpufs.victim
    const double vc_probes = get("daemon.vc_hits") + get("daemon.vc_misses") +
        get("daemon.vc_version_stale");
    m.push_back({"gpufs.victim.hit_ratio",
                 ratio(get("daemon.vc_hits"), vc_probes), "ratio",
                 uint64_t(vc_probes)});
    m.push_back({"gpufs.victim.inserts_per_op",
                 ratio(get("daemon.vc_inserts"), ops), "count/op", n_ops});
    m.push_back({"gpufs.victim.stale", get("daemon.vc_version_stale"),
                 "count", n_seg});

    // gpufs.shard
    const double non_owner = get("gpu.peer_pages_forwarded") +
        get("gpu.peer_pages_fallback");
    m.push_back({"gpufs.shard.peer_forward_ratio",
                 ratio(get("gpu.peer_pages_forwarded"), non_owner), "ratio",
                 uint64_t(non_owner)});
    m.push_back({"gpufs.shard.peer_rpcs_per_op",
                 ratio(get("gpu.peer_read_rpcs"), ops), "count/op", n_ops});

    // rpc.queue
    const double subs = get("queue.submissions");
    m.push_back({"rpc.queue.submissions_per_op", ratio(subs, ops),
                 "count/op", n_ops});
    m.push_back({"rpc.queue.max_inflight", get("queue.max_inflight"),
                 "count", n_seg});
    m.push_back({"rpc.queue.full_stalls", get("queue.full_stalls"), "count",
                 n_seg});
    m.push_back({"rpc.queue.rings_suppressed_ratio",
                 ratio(get("queue.rings_suppressed"), subs), "ratio",
                 uint64_t(subs)});

    // rpc.daemon
    m.push_back({"rpc.daemon.cpu_io_util",
                 ratio(get("busy.cpu_io"), span_ns), "ratio", n_seg});
    m.push_back({"rpc.daemon.cpu_io_busy_us_per_op",
                 ratio(get("busy.cpu_io") / 1e3, ops), "us", n_ops});
    m.push_back({"rpc.daemon.coalesced_ratio",
                 ratio(get("daemon.coalesced_rpcs"),
                       get("gpu.batch_read_rpcs")),
                 "ratio", uint64_t(get("gpu.batch_read_rpcs"))});
    m.push_back({"rpc.daemon.host_reads_per_read_rpc",
                 ratio(get("daemon.host_read_calls"), read_rpcs), "count/rpc",
                 uint64_t(read_rpcs)});
    m.push_back({"rpc.daemon.io_retries", get("daemon.io_retries"), "count",
                 n_seg});

    // hostfs
    const double pc_hit = get("pagecache.hit_bytes");
    const double pc_miss = get("pagecache.miss_bytes");
    m.push_back({"hostfs.page_cache_hit_ratio",
                 ratio(pc_hit, pc_hit + pc_miss), "ratio",
                 uint64_t(pc_hit + pc_miss)});
    m.push_back({"hostfs.disk_util", ratio(get("busy.disk"), span_ns),
                 "ratio", n_seg});
    m.push_back({"hostfs.disk_busy_us_per_op",
                 ratio(get("busy.disk") / 1e3, ops), "us", n_ops});
    m.push_back({"hostfs.journal.commits", get("daemon.journal_commits"),
                 "count", n_seg});
    m.push_back({"hostfs.journal.commits_per_group_sync",
                 ratio(get("daemon.journal_commits"),
                       get("daemon.journal_group_syncs")),
                 "count/sync", uint64_t(get("daemon.journal_group_syncs"))});

    // storage
    m.push_back({"storage.read_bytes_per_user_byte",
                 ratio(get("daemon.storage_read_bytes"), user_rd), "B/B",
                 n_ops});
    m.push_back({"storage.write_bytes_per_user_byte",
                 ratio(get("daemon.storage_write_bytes"), user_wr), "B/B",
                 n_ops});
    m.push_back({"storage.syncs_per_op",
                 ratio(get("daemon.storage_syncs"), ops), "count/op", n_ops});

    // sim timelines: busy time / span, per device or GPU pair
    const double pairs = gpus > 1 ? double(gpus * (gpus - 1)) : 1;
    m.push_back({"sim.pcie_h2d_util",
                 ratio(get("busy.pcie_h2d"), span_ns * gpus), "ratio", n_seg});
    m.push_back({"sim.pcie_d2h_util",
                 ratio(get("busy.pcie_d2h"), span_ns * gpus), "ratio", n_seg});
    m.push_back({"sim.p2p_util", ratio(get("busy.p2p"), span_ns * pairs),
                 "ratio", n_seg});
    m.push_back({"sim.host_stage_util",
                 ratio(get("busy.host_stage"), span_ns * gpus), "ratio",
                 n_seg});

    // gpu
    m.push_back({"gpu.kernel_span_s", median(spans_s), "s", n_seg});
    m.push_back({"gpu.block_end_skew", median(skews), "ratio", n_seg});

    // Tracing overhead: traced and untraced segments alternate.
    std::vector<double> traced, plain;
    for (const Segment &s : segs)
        (s.traced ? traced : plain).push_back(ratio(double(s.ops), s.wallS));
    const double t = median(traced), p = median(plain);
    m.push_back({"trace.traced_wall_ops_per_s", t, "1/s", traced.size()});
    m.push_back({"trace.untraced_wall_ops_per_s", p, "1/s", plain.size()});
    m.push_back({"trace.overhead_frac", p > 0 ? 1.0 - t / p : 0, "ratio",
                 n_seg});
}

bool
writeJson(const std::string &path, const Options &o, size_t n_segments,
          uint64_t attempted, uint64_t failed,
          const std::vector<Metric> &metrics)
{
    FILE *f = path.empty() ? stdout : std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f,
                 "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %.17g, "
                 "\"smoke\": %s, \"segments\": %zu, \"attempted\": %llu, "
                 "\"failed\": %llu, \"metrics\": {",
                 o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                 o.seconds, o.smoke ? "true" : "false", n_segments,
                 static_cast<unsigned long long>(attempted),
                 static_cast<unsigned long long>(failed));
    for (size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        std::fprintf(f, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\", "
                        "\"samples\": %llu}",
                     i ? ", " : "", m.name.c_str(),
                     std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str(),
                     static_cast<unsigned long long>(m.samples));
    }
    std::fprintf(f, "}}\n");
    return f == stdout ? true : std::fclose(f) == 0;
}

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "%s\nusage: gpufs_bench --workload=scan|lookup|ingest|"
                 "shared [--seed=N] [--seconds=S] [--smoke] "
                 "[--trace=FILE] [--json=FILE]\n",
                 msg);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto val = [&](const char *key) -> const char * {
            size_t n = std::strlen(key);
            return a.compare(0, n, key) == 0 ? argv[i] + n : nullptr;
        };
        char *end = nullptr;
        if (const char *s = val("--workload=")) {
            o.workload = s;
        } else if (const char *s = val("--seed=")) {
            o.seed = std::strtoull(s, &end, 10);
            if (*s == '\0' || *end != '\0')
                usage("bad --seed");
        } else if (const char *s = val("--seconds=")) {
            o.seconds = std::strtod(s, &end);
            if (*s == '\0' || *end != '\0' || !(o.seconds > 0) ||
                o.seconds > 3600)
                usage("bad --seconds");
        } else if (const char *s = val("--trace=")) {
            o.traceFile = s;
        } else if (const char *s = val("--json=")) {
            o.jsonFile = s;
        } else if (a == "--smoke") {
            o.smoke = true;
        } else {
            usage(("unknown option " + a).c_str());
        }
    }
    return o;
}

} // namespace

int
main(int argc, char **argv)
{
    wallNs();   // start the wall clock at process start
    Options opt = parseArgs(argc, argv);
    std::unique_ptr<Workload> w = makeWorkload(opt);
    if (!w)
        usage("unknown --workload");
    for (uint64_t off = 0; off < 64; ++off) {
        uint64_t word = patternWord(opt.seed, off / 8);
        if (hostfs::SyntheticContent::patternByte(opt.seed, off) !=
            uint8_t(word >> (off % 8 * 8))) {
            std::fprintf(stderr, "pattern word/byte views disagree\n");
            return 1;
        }
    }
    const bool tracing = !opt.traceFile.empty();

    std::vector<double> setup_s;
    auto timed_setup = [&] {
        int64_t t0 = wallNs();
        bool good = w->setup();
        setup_s.push_back(double(wallNs() - t0) / 1e9);
        return good;
    };
    // One long-lived machine: set it up kSetups times, keep the last.
    // Otherwise every machine's setup is timed as the run goes.
    const unsigned per_machine = w->segmentsPerMachine();
    if (per_machine == 0) {
        for (unsigned i = 0; i < kSetups; ++i) {
            if (!timed_setup())
                return 1;
        }
    }

    Snap total;
    std::vector<Segment> segs;
    // Peak RSS is taken when the first timed machine is done: later
    // machines of a process land in heap the allocator kept from
    // earlier ones, so their peaks mix in allocator history.
    double peak_rss = 0;
    const int64_t deadline = wallNs() + int64_t(opt.seconds * 1e9);
    // A machine, once set up, runs all its segments: every machine of a
    // run does the same work.
    auto machine_done = [&] {
        return per_machine == 0 || segs.size() % per_machine == 0;
    };
    while (segs.empty() || !machine_done() ||
           (wallNs() < deadline && segs.size() < kMaxSegments)) {
        if (per_machine && segs.size() % per_machine == 0 &&
            !timed_setup())
            return 1;
        segs.push_back(runSegment(*w, tracing && segs.size() % 2 == 0,
                                  total));
        if (per_machine && segs.size() == per_machine)
            peak_rss = peakRssMB();
        w->afterSegment();
    }
    if (per_machine == 0)
        peak_rss = peakRssMB();

    uint64_t attempted = 0, failed = 0;
    std::vector<double> lat_us;
    for (const BlockRec &r : w->rec) {
        attempted += r.attempted;
        failed += r.failed;
        for (Time t : r.opLat)
            lat_us.push_back(double(t) / 1e3);
    }
    // Virtual throughput pools every segment: the system moves between
    // steady states within a run (shared: two modes ~5% apart), which
    // a median of segments would pick between instead of averaging.
    // Wall-clock rates are per-layer only (trace.untraced_wall_ops_per_s):
    // on a shared host they follow the neighbours' load, not the code.
    double bytes = 0, span_s = 0;
    for (const Segment &s : segs) {
        bytes += double(s.bytes);
        span_s += s.spanS;
    }
    const uint64_t n_lat = lat_us.size(), n_seg = segs.size();
    std::vector<Metric> metrics = {
        {"setup_s", median(setup_s), "s", setup_s.size()},
        {"sim_MBps", ratio(bytes / 1e6, span_s), "MB/s", n_seg},
        {"op_p50_us", quantile(lat_us, 0.50), "us", n_lat},
        {"op_p99_us", quantile(lat_us, 0.99), "us", n_lat},
        {"op_p999_us", quantile(lat_us, 0.999), "us", n_lat},
        {"peak_rss_MB", peak_rss, "MB", 1},
        {"error_frac", ratio(double(failed), double(attempted)), "ratio",
         attempted},
    };
    layerMetrics(metrics, total, segs, w->rec, w->system().numGpus());

    if (tracing && !writeTrace(opt.traceFile, w->rec)) {
        std::fprintf(stderr, "cannot write trace %s\n",
                     opt.traceFile.c_str());
        return 1;
    }
    if (!writeJson(opt.jsonFile, opt, segs.size(), attempted, failed,
                   metrics)) {
        std::fprintf(stderr, "cannot write %s\n", opt.jsonFile.c_str());
        return 1;
    }
    return failed == 0 ? 0 : 3;
}
