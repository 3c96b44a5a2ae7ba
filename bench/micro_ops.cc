/**
 * @file
 * google-benchmark microbenchmarks of the hot operations: radix-tree
 * lookups (lock-free vs locked), cached greads, RPC round-trips, and
 * the GPU string routines. These measure REAL time of the actual data
 * structures (no cost model involved).
 */

#include <benchmark/benchmark.h>

#include <cstring>

#include "gpufs/system.hh"
#include "gpuutil/gstring.hh"
#include "workloads/textcorpus.hh"

using namespace gpufs;

namespace {

/** Fixture state shared by the radix/gread benchmarks. */
struct CachedFile {
    CachedFile(uint64_t page_size, bool locked)
    {
        core::GpuFsParams p;
        p.pageSize = page_size;
        p.cacheBytes = 64 * MiB;
        p.forceLockedTraversal = locked;
        sys = std::make_unique<core::GpufsSystem>(1, p);
        auto gen = [](uint64_t, uint64_t len, uint8_t *dst) {
            std::memset(dst, 0xA5, len);
        };
        sys->hostFs().addFile(
            "/f", std::make_unique<hostfs::SyntheticContent>(gen),
            32 * MiB);
        ctx = std::make_unique<gpu::BlockCtx>(sys->device(0), 0, 1, 512,
                                              0, 64 * KiB);
        fd = sys->fs().gopen(*ctx, "/f", core::G_RDONLY);
        // Populate the cache.
        std::vector<uint8_t> buf(64 * KiB);
        for (uint64_t off = 0; off < 32 * MiB; off += buf.size())
            sys->fs().gread(*ctx, fd, off, buf.size(), buf.data());
    }

    std::unique_ptr<core::GpufsSystem> sys;
    std::unique_ptr<gpu::BlockCtx> ctx;
    int fd;
};

void
BM_GreadCachedLockfree(benchmark::State &state)
{
    CachedFile f(256 * KiB, false);
    std::vector<uint8_t> buf(size_t(state.range(0)));
    SplitMix64 rng(1);
    for (auto _ : state) {
        uint64_t off = rng.nextBelow(32 * MiB - buf.size());
        benchmark::DoNotOptimize(
            f.sys->fs().gread(*f.ctx, f.fd, off, buf.size(), buf.data()));
    }
    state.SetBytesProcessed(int64_t(state.iterations()) * state.range(0));
}
BENCHMARK(BM_GreadCachedLockfree)->Arg(4096)->Arg(16384)->Arg(65536);

void
BM_GreadCachedLocked(benchmark::State &state)
{
    CachedFile f(256 * KiB, true);
    std::vector<uint8_t> buf(size_t(state.range(0)));
    SplitMix64 rng(1);
    for (auto _ : state) {
        uint64_t off = rng.nextBelow(32 * MiB - buf.size());
        benchmark::DoNotOptimize(
            f.sys->fs().gread(*f.ctx, f.fd, off, buf.size(), buf.data()));
    }
    state.SetBytesProcessed(int64_t(state.iterations()) * state.range(0));
}
BENCHMARK(BM_GreadCachedLocked)->Arg(16384);

void
BM_RawMemcpyBaseline(benchmark::State &state)
{
    std::vector<uint8_t> src(32 * MiB, 0xA5);
    std::vector<uint8_t> buf(size_t(state.range(0)));
    SplitMix64 rng(1);
    for (auto _ : state) {
        uint64_t off = rng.nextBelow(src.size() - buf.size());
        std::memcpy(buf.data(), src.data() + off, buf.size());
        benchmark::DoNotOptimize(buf.data());
    }
    state.SetBytesProcessed(int64_t(state.iterations()) * state.range(0));
}
BENCHMARK(BM_RawMemcpyBaseline)->Arg(4096)->Arg(16384)->Arg(65536);

void
BM_RpcNopRoundtrip(benchmark::State &state)
{
    core::GpufsSystem sys(1);
    // Reach the queue through a trivial open/stat/close cycle.
    sys.hostFs().addFile(
        "/x",
        std::make_unique<hostfs::InMemoryContent>(
            std::vector<uint8_t>(64, 7)),
        64);
    gpu::BlockCtx ctx(sys.device(0), 0, 1, 512, 0, 4096);
    for (auto _ : state) {
        core::GStat st;
        int fd = sys.fs().gopen(ctx, "/x", core::G_RDONLY);
        sys.fs().gfstat(ctx, fd, &st);
        sys.fs().gclose(ctx, fd);
        benchmark::DoNotOptimize(st);
    }
}
BENCHMARK(BM_RpcNopRoundtrip);

/**
 * gopen + gclose of a parked file while range(0) files sit parked in
 * the table, each with one resident page. Every gopen takes the open
 * slow path (drained collection, Open RPC, closed-table reuse) and
 * every gclose parks the entry again and releases its host fd, so a
 * pair costs two RPCs plus the table work, which should not grow with
 * the number of parked entries.
 */
void
BM_GopenGcloseParked(benchmark::State &state)
{
    const unsigned parked = unsigned(state.range(0));
    core::GpuFsParams p;
    p.pageSize = 4 * KiB;
    p.cacheBytes = (parked + 64) * p.pageSize;
    p.maxOpenFiles = parked + 16;
    core::GpufsSystem sys(1, p);
    std::vector<std::string> paths;
    for (unsigned f = 0; f < parked; ++f) {
        paths.push_back("/parked/f" + std::to_string(f));
        sys.hostFs().addFile(
            paths.back(),
            std::make_unique<hostfs::InMemoryContent>(
                std::vector<uint8_t>(p.pageSize, uint8_t(f))),
            p.pageSize);
    }
    gpu::BlockCtx ctx(sys.device(0), 0, 1, 512, 0, 4096);
    uint8_t byte;
    for (const std::string &path : paths) {
        int fd = sys.fs().gopen(ctx, path, core::G_RDONLY);
        sys.fs().gread(ctx, fd, 0, 1, &byte);
        sys.fs().gclose(ctx, fd);
    }
    size_t next = 0;
    for (auto _ : state) {
        int fd = sys.fs().gopen(ctx, paths[next], core::G_RDONLY);
        benchmark::DoNotOptimize(sys.fs().gclose(ctx, fd));
        next = next + 1 == paths.size() ? 0 : next + 1;
    }
}
BENCHMARK(BM_GopenGcloseParked)->Arg(128)->Arg(1024)->Arg(4096);

/**
 * BM_GopenGcloseParked on three threads at once, one block each, over
 * disjoint sets of range(0) parked files in one GpufsSystem (one
 * daemon). The blocks open different files but share the file table
 * and the daemon, so a table lock held across an Open or Close RPC
 * shows as each block's pair waiting for the others' round trips.
 */
void
BM_GopenGcloseParkedThreads(benchmark::State &state)
{
    struct Shared {
        std::unique_ptr<core::GpufsSystem> sys;
        std::vector<std::unique_ptr<gpu::BlockCtx>> ctx;
        std::vector<std::vector<std::string>> paths;
    };
    static Shared shared;
    const unsigned parked = unsigned(state.range(0));
    const int t = state.thread_index();
    if (t == 0) {
        const unsigned blocks = unsigned(state.threads());
        core::GpuFsParams p;
        p.pageSize = 4 * KiB;
        p.cacheBytes = (blocks * parked + 64) * p.pageSize;
        p.maxOpenFiles = blocks * parked + 16;
        shared.sys = std::make_unique<core::GpufsSystem>(1, p);
        shared.ctx.clear();
        shared.paths.assign(blocks, {});
        uint8_t byte;
        for (unsigned b = 0; b < blocks; ++b) {
            shared.ctx.push_back(std::make_unique<gpu::BlockCtx>(
                shared.sys->device(0), b, blocks, 512, 0, 4096));
            for (unsigned f = 0; f < parked; ++f) {
                shared.paths[b].push_back("/parked/b" + std::to_string(b) +
                                          "/f" + std::to_string(f));
                shared.sys->hostFs().addFile(
                    shared.paths[b].back(),
                    std::make_unique<hostfs::InMemoryContent>(
                        std::vector<uint8_t>(p.pageSize, uint8_t(f))),
                    p.pageSize);
                int fd = shared.sys->fs().gopen(
                    *shared.ctx[b], shared.paths[b].back(), core::G_RDONLY);
                shared.sys->fs().gread(*shared.ctx[b], fd, 0, 1, &byte);
                shared.sys->fs().gclose(*shared.ctx[b], fd);
            }
        }
    }
    // Every thread enters the loop only after thread 0's setup.
    size_t next = 0;
    for (auto _ : state) {
        core::GpuFs &fs = shared.sys->fs();
        gpu::BlockCtx &ctx = *shared.ctx[size_t(t)];
        const std::vector<std::string> &paths = shared.paths[size_t(t)];
        int fd = fs.gopen(ctx, paths[next], core::G_RDONLY);
        benchmark::DoNotOptimize(fs.gclose(ctx, fd));
        next = next + 1 == paths.size() ? 0 : next + 1;
    }
    // Every thread has left the loop before any passes this point.
    if (t == 0)
        shared = Shared{};
}
BENCHMARK(BM_GopenGcloseParkedThreads)->Arg(128)->Threads(3)->UseRealTime();

void
BM_GsnprintfLine(benchmark::State &state)
{
    char buf[128];
    uint64_t n = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(gpuutil::gsnprintf(
            buf, sizeof(buf), "%s %s %llu\n", "somewordhere",
            "/src/f3/s999.c", static_cast<unsigned long long>(++n)));
    }
}
BENCHMARK(BM_GsnprintfLine);

void
BM_WordCountScan(benchmark::State &state)
{
    workloads::Dictionary dict(1, 1000);
    sim::SimContext sim;
    hostfs::HostFs fs(sim);
    workloads::Corpus c = workloads::makeSingleFile(fs, dict, 2, "/t",
                                                    256 * 1024);
    std::vector<uint8_t> raw(c.totalBytes);
    int fd = fs.open("/t", hostfs::O_RDONLY_F);
    fs.pread(fd, raw.data(), raw.size(), 0);
    fs.close(fd);
    std::vector<uint64_t> counts;
    for (auto _ : state) {
        workloads::countWords(dict, reinterpret_cast<char *>(raw.data()),
                              raw.size(), counts);
        benchmark::DoNotOptimize(counts.data());
    }
    state.SetBytesProcessed(int64_t(state.iterations()) *
                            int64_t(raw.size()));
}
BENCHMARK(BM_WordCountScan);

} // namespace

BENCHMARK_MAIN();
