/**
 * @file
 * Storage-backend ablation: the same GPU workloads on each of the four
 * storage backends (buffered / direct / gds / remote), reporting where
 * each wins — plus two exit-nonzero gates that CI leans on:
 *
 *  1. IDENTITY: BufferedBackend on a fixed, deterministic fig4 shape
 *     must reproduce the pre-backend-refactor virtual span EXACTLY.
 *     The backend layer slid between the daemon and HostFs; the
 *     default path must be byte-identical, not merely close.
 *
 *  2. ZERO-COPY WIN: on cold random small-page reads (the shape where
 *     the buffered path's 64K-granule over-read and extra H2D hop hurt
 *     most), GdsBackend must beat BufferedBackend outright.
 *
 * The remote tier gets an RTT sweep instead of a gate: where NVMe-oF
 * flash overtakes the local spindle depends on the fabric round-trip,
 * and the sweep prints the crossover.
 */

#include <cstring>

#include "bench/benchutil.hh"
#include "gpu/launch.hh"

using namespace gpufs;

namespace {

constexpr char kPath[] = "/data/abl.bin";

const storage::BackendKind kKinds[] = {
    storage::BackendKind::Buffered,
    storage::BackendKind::Direct,
    storage::BackendKind::Gds,
    storage::BackendKind::RemoteFlash,
};

struct RunResult {
    Time elapsed = 0;
    uint64_t bytes = 0;         ///< payload bytes the kernel consumed
    uint64_t storageReads = 0;
    uint64_t storageReadBytes = 0;
};

/** Sequential scan (fig4 shape): @p blocks blocks split the file. */
RunResult
runSeqScan(storage::BackendKind kind, uint64_t file_bytes,
           uint64_t page_size, unsigned blocks, unsigned ra_pages,
           bool warm_host)
{
    core::GpuFsParams p;
    p.pageSize = page_size;
    p.cacheBytes = ((file_bytes / page_size) + 64) * page_size;
    p.readAheadPages = ra_pages;
    p.storageBackend = kind;
    // Tier explicitly OFF: the identity gate freezes the backend layer
    // against the pre-refactor span, so the victim cache (a separate
    // tier with its own ablation below) must not be in the picture.
    p.victimCachePages = 0;
    core::GpufsSystem sys(1, p);
    bench::addZerosFile(sys.hostFs(), kPath, file_bytes);
    if (warm_host)
        bench::warmHostCache(sys.hostFs(), kPath);

    const uint64_t span = (file_bytes + blocks - 1) / blocks;
    gpu::KernelStats ks = gpu::launch(
        sys.device(0), blocks, 512, [&](gpu::BlockCtx &ctx) {
            core::GpuFs &fs = sys.fs();
            int fd = fs.gopen(ctx, kPath, core::G_RDONLY);
            gpufs_assert(fd >= 0, "gopen failed");
            uint64_t base = ctx.blockId() * span;
            uint64_t end = std::min(file_bytes, base + span);
            for (uint64_t off = base; off < end;) {
                uint64_t mapped = 0;
                void *ptr = fs.gmmap(ctx, fd, off, end - off, &mapped);
                gpufs_assert(ptr && mapped > 0, "gmmap failed");
                fs.gmunmap(ctx, ptr);
                off += mapped;
            }
            fs.gclose(ctx, fd);
        });
    RunResult r;
    r.elapsed = ks.elapsed();
    r.bytes = file_bytes;
    r.storageReads = sys.daemon().stats().counter("storage_reads").get();
    r.storageReadBytes =
        sys.daemon().stats().counter("storage_read_bytes").get();
    return r;
}

/** Cold random reads (fig6 shape, host cache cold): @p blocks blocks
 *  each gread @p reads chunks of @p read_size from random offsets.
 *  @p rtt_override, when nonzero, reconfigures the NVMe-oF fabric
 *  round-trip before the kernel runs (remote backend only cares). */
RunResult
runRandomCold(storage::BackendKind kind, uint64_t file_bytes,
              uint64_t page_size, unsigned blocks, unsigned reads,
              uint64_t read_size, Time rtt_override = 0)
{
    core::GpuFsParams p;
    p.pageSize = page_size;
    p.cacheBytes = 2 * GiB;
    p.readAheadPages = 0;
    p.storageBackend = kind;
    core::GpufsSystem sys(1, p);
    if (rtt_override)
        sys.sim().params.nvmfRtt = rtt_override;
    bench::addZerosFile(sys.hostFs(), kPath, file_bytes);
    // No warmHostCache: every miss goes to storage, which is the
    // comparison this shape exists to make.

    std::atomic<uint64_t> bytes{0};
    gpu::KernelStats ks = gpu::launch(
        sys.device(0), blocks, 512, [&](gpu::BlockCtx &ctx) {
            core::GpuFs &fs = sys.fs();
            int fd = fs.gopen(ctx, kPath, core::G_RDONLY);
            gpufs_assert(fd >= 0, "gopen failed");
            uint64_t range = file_bytes - read_size;
            for (unsigned i = 0; i < reads; ++i) {
                uint64_t off = ctx.rng().nextBelow(range);
                int64_t n = fs.gread(ctx, fd, off, read_size,
                                     ctx.sharedMem());
                gpufs_assert(n == int64_t(read_size), "gread short");
                bytes.fetch_add(uint64_t(n));
            }
            fs.gclose(ctx, fd);
        });
    RunResult r;
    r.elapsed = ks.elapsed();
    r.bytes = bytes.load();
    r.storageReads = sys.daemon().stats().counter("storage_reads").get();
    r.storageReadBytes =
        sys.daemon().stats().counter("storage_read_bytes").get();
    return r;
}

/** Skewed reuse under a small arena: blocks rescan a hot region ~4x
 *  the frame arena, so rounds beyond the first re-miss everything the
 *  previous round evicted. With @p victim_pages > 0 those evictions
 *  demote into the host-RAM victim tier and the re-miss becomes one
 *  H2D DMA regardless of backend — the composition the tier matrix
 *  below reports per backend. */
RunResult
runReuse(storage::BackendKind kind, uint64_t hot_bytes,
         uint64_t page_size, uint64_t victim_pages, unsigned blocks,
         unsigned rounds)
{
    core::GpuFsParams p;
    p.pageSize = page_size;
    p.cacheBytes = std::max<uint64_t>(hot_bytes / 4, 4 * page_size);
    p.readAheadPages = 0;
    p.storageBackend = kind;
    p.victimCachePages = victim_pages;
    core::GpufsSystem sys(1, p);
    bench::addZerosFile(sys.hostFs(), kPath, hot_bytes);
    // Host cache cold: a buffered re-miss pays the device too, so the
    // matrix compares each backend's raw re-miss cost against one H2D.

    const uint64_t span = (hot_bytes + blocks - 1) / blocks
        / page_size * page_size;
    gpu::KernelStats ks = gpu::launch(
        sys.device(0), blocks, 512, [&](gpu::BlockCtx &ctx) {
            core::GpuFs &fs = sys.fs();
            int fd = fs.gopen(ctx, kPath, core::G_RDONLY);
            gpufs_assert(fd >= 0, "gopen failed");
            uint64_t base = ctx.blockId() * span;
            uint64_t end = std::min(hot_bytes, base + span);
            for (unsigned round = 0; round < rounds; ++round) {
                for (uint64_t off = base; off < end;) {
                    uint64_t mapped = 0;
                    void *ptr = fs.gmmap(ctx, fd, off, end - off,
                                         &mapped);
                    gpufs_assert(ptr && mapped > 0, "gmmap failed");
                    fs.gmunmap(ctx, ptr);
                    off += mapped;
                }
            }
            fs.gclose(ctx, fd);
        });
    RunResult r;
    r.elapsed = ks.elapsed();
    r.bytes = hot_bytes * rounds;
    r.storageReads = sys.daemon().stats().counter("storage_reads").get();
    r.storageReadBytes =
        sys.daemon().stats().counter("storage_read_bytes").get();
    return r;
}

/** Shared scan: every block maps the WHOLE file (cross-block RPC
 *  aggregation feeds the backend's readRuns path). */
RunResult
runSharedScan(storage::BackendKind kind, uint64_t file_bytes,
              uint64_t page_size, unsigned blocks)
{
    core::GpuFsParams p;
    p.pageSize = page_size;
    p.cacheBytes = ((file_bytes / page_size) + 64) * page_size;
    p.readAheadPages = 4;
    p.storageBackend = kind;
    core::GpufsSystem sys(1, p);
    bench::addZerosFile(sys.hostFs(), kPath, file_bytes);
    bench::warmHostCache(sys.hostFs(), kPath);

    gpu::KernelStats ks = gpu::launch(
        sys.device(0), blocks, 512, [&](gpu::BlockCtx &ctx) {
            core::GpuFs &fs = sys.fs();
            int fd = fs.gopen(ctx, kPath, core::G_RDONLY);
            gpufs_assert(fd >= 0, "gopen failed");
            for (uint64_t off = 0; off < file_bytes;) {
                uint64_t mapped = 0;
                void *ptr = fs.gmmap(ctx, fd, off, file_bytes - off,
                                     &mapped);
                gpufs_assert(ptr && mapped > 0, "gmmap failed");
                fs.gmunmap(ctx, ptr);
                off += mapped;
            }
            fs.gclose(ctx, fd);
        });
    RunResult r;
    r.elapsed = ks.elapsed();
    r.bytes = file_bytes;   // unique bytes; shared misses fetch once
    r.storageReads = sys.daemon().stats().counter("storage_reads").get();
    r.storageReadBytes =
        sys.daemon().stats().counter("storage_read_bytes").get();
    return r;
}

void
printRow(storage::BackendKind kind, const RunResult &r)
{
    std::printf("%-10s %12.3f %12.0f %14llu %16llu\n",
                storage::backendName(kind), toMillis(r.elapsed),
                throughputMBps(r.bytes, r.elapsed),
                static_cast<unsigned long long>(r.storageReads),
                static_cast<unsigned long long>(r.storageReadBytes));
}

void
printHeader()
{
    std::printf("%-10s %12s %12s %14s %16s\n", "backend", "elapsed_ms",
                "MB/s", "storage_reads", "storage_rd_bytes");
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Options opt = bench::parseOptions(
        argc, argv, 0.5,
        "Storage-backend ablation: buffered/direct/gds/remote across "
        "seq, random, and shared-scan shapes (+ identity and zero-copy "
        "gates)");
    bool fail = false;

    // ---- Gate 1: Buffered identity on the frozen probe shape ----
    // This shape (and its expected span) predate the backend layer:
    // 16 MB file, 64K pages, one block, static ra=8, warm host cache.
    // Independent of --scale on purpose — the constant IS the test.
    constexpr Time kPreRefactorSpan = 13413780;  // ns
    {
        RunResult base = runSeqScan(storage::BackendKind::Buffered,
                                    16 * MiB, 64 * KiB, /*blocks=*/1,
                                    /*ra_pages=*/8, /*warm=*/true);
        bench::printTitle(
            "Gate: buffered identity (frozen 16MB/64K/1-block shape)",
            "the default backend must reproduce the pre-refactor span "
            "EXACTLY");
        std::printf("expected_ns=%llu  measured_ns=%llu  %s\n",
                    static_cast<unsigned long long>(kPreRefactorSpan),
                    static_cast<unsigned long long>(base.elapsed),
                    base.elapsed == kPreRefactorSpan ? "OK" : "FAIL");
        if (base.elapsed != kPreRefactorSpan)
            fail = true;
    }

    // ---- Shape A: sequential scan, warm host cache (fig4) ----
    {
        const uint64_t file = uint64_t(256 * MiB * opt.scale) / MiB * MiB;
        bench::printTitle(
            "\nShape A: sequential scan, warm host cache (" +
                std::to_string(file / MiB) + " MB, 256K pages, 28 blocks)",
            "buffered wins warm data: host-cache copy beats device "
            "re-reads; gds dodges the H2D hop but pays media rates");
        printHeader();
        for (auto kind : kKinds)
            printRow(kind, runSeqScan(kind, file, 256 * KiB, 28, 8,
                                      /*warm=*/true));
    }

    // ---- Shape B: cold random small pages (fig6, cold) + gate 2 ----
    Time buffered_cold = 0, gds_cold = 0;
    {
        const uint64_t file = uint64_t(512 * MiB * opt.scale) / MiB * MiB;
        const unsigned blocks = 28, reads = 32;
        bench::printTitle(
            "\nShape B: COLD random 16K reads (" +
                std::to_string(file / MiB) + " MB file, 16K pages, " +
                std::to_string(blocks) + "x" + std::to_string(reads) +
                " reads)",
            "the zero-copy shape: buffered over-reads 64K granules and "
            "bounces through host RAM; direct/gds fetch aligned 16K");
        printHeader();
        for (auto kind : kKinds) {
            RunResult r = runRandomCold(kind, file, 16 * KiB, blocks,
                                        reads, 16 * KiB);
            printRow(kind, r);
            if (kind == storage::BackendKind::Buffered)
                buffered_cold = r.elapsed;
            if (kind == storage::BackendKind::Gds)
                gds_cold = r.elapsed;
        }
        std::printf("# gate: gds (%0.3f ms) must beat buffered "
                    "(%0.3f ms): %s\n", toMillis(gds_cold),
                    toMillis(buffered_cold),
                    gds_cold < buffered_cold ? "OK" : "FAIL");
        if (!(gds_cold < buffered_cold))
            fail = true;
    }

    // ---- Shape C: shared scan (cross-block aggregation -> readRuns) --
    {
        const uint64_t file = uint64_t(64 * MiB * opt.scale) / MiB * MiB;
        bench::printTitle(
            "\nShape C: shared scan, 16 blocks over one warm " +
                std::to_string(file / MiB) + " MB file (64K pages)",
            "aggregated same-file RPCs ride the backend's gathered "
            "readRuns path");
        printHeader();
        for (auto kind : kKinds)
            printRow(kind, runSharedScan(kind, file, 64 * KiB, 16));
    }

    // ---- Victim-tier matrix: re-miss cost per backend, tier on/off --
    {
        const uint64_t page = 64 * KiB;
        const uint64_t hot = std::max<uint64_t>(
            uint64_t(32 * MiB * opt.scale) / page * page, 16 * page);
        const unsigned blocks = 8, rounds = 3;
        const uint64_t tier_pages = 2 * (hot / page);
        bench::printTitle(
            "\nVictim-tier matrix: skewed reuse (" +
                std::to_string(hot / MiB) + " MB hot / quarter-size "
                "arena, cold host), tier off vs on",
            "a victim hit is one H2D from pinned host RAM on EVERY "
            "backend — including gds, whose direct-to-GPU DMA shortcut "
            "must not apply to bytes that live in host memory");
        std::printf("%-10s %14s %14s %9s %14s\n", "backend",
                    "off_elapsed_ms", "on_elapsed_ms", "speedup",
                    "on_storage_rds");
        for (auto kind : kKinds) {
            RunResult off = runReuse(kind, hot, page, 0, blocks, rounds);
            RunResult on = runReuse(kind, hot, page, tier_pages, blocks,
                                    rounds);
            std::printf("%-10s %14.3f %14.3f %8.2fx %14llu\n",
                        storage::backendName(kind), toMillis(off.elapsed),
                        toMillis(on.elapsed),
                        on.elapsed ? double(off.elapsed) / on.elapsed
                                   : 0.0,
                        static_cast<unsigned long long>(on.storageReads));
        }
    }

    // ---- Remote tier: RTT crossover sweep ----
    {
        const uint64_t file = uint64_t(256 * MiB * opt.scale) / MiB * MiB;
        const unsigned blocks = 28, reads = 16;
        bench::printTitle(
            "\nRemote NVMe-oF RTT sweep: cold random 16K reads vs the "
            "local buffered spindle",
            "remote flash media is ~17x faster than the spindle; the "
            "fabric RTT decides where that stops paying");
        RunResult local = runRandomCold(storage::BackendKind::Buffered,
                                        file, 16 * KiB, blocks, reads,
                                        16 * KiB);
        std::printf("local buffered (spindle): %.3f ms  %.0f MB/s\n",
                    toMillis(local.elapsed),
                    throughputMBps(local.bytes, local.elapsed));
        std::printf("%-10s %12s %12s %10s\n", "rtt_us", "elapsed_ms",
                    "MB/s", "vs_local");
        Time crossover = 0;
        // Queue-depth pipelining hides sub-millisecond RTTs entirely
        // (the sweep is flat until per-command latency outweighs the
        // media serialization), so the sweep reaches into the
        // cross-datacenter range to surface the crossover.
        for (Time rtt_us : {10ull, 100ull, 1000ull, 4000ull, 10000ull,
                            30000ull}) {
            RunResult r = runRandomCold(storage::BackendKind::RemoteFlash,
                                        file, 16 * KiB, blocks, reads,
                                        16 * KiB, rtt_us * kMicrosecond);
            bool wins = r.elapsed < local.elapsed;
            if (!wins && crossover == 0)
                crossover = rtt_us;
            std::printf("%-10llu %12.3f %12.0f %10s\n",
                        static_cast<unsigned long long>(rtt_us),
                        toMillis(r.elapsed),
                        throughputMBps(r.bytes, r.elapsed),
                        wins ? "wins" : "loses");
        }
        if (crossover)
            std::printf("# crossover: remote stops winning at rtt >= "
                        "%llu us\n",
                        static_cast<unsigned long long>(crossover));
        else
            std::printf("# no crossover in sweep: remote wins at every "
                        "tested RTT\n");
    }

    std::printf("\n%s\n", fail ? "GATES: FAIL" : "GATES: OK");
    return fail ? 1 : 0;
}
