/**
 * @file
 * Figure 6: random read performance vs. page size.
 *
 * Paper setup (§5.1.2): 112 threadblocks each gread 32 blocks of
 * 32 KB from random offsets of a 1 GB file into on-die scratchpad
 * memory — 112 MB read in total. Small pages fail to amortize
 * per-transfer costs; large pages transfer data the application never
 * touches. Effective bandwidth = 112 MB / elapsed. The paper reports
 * the unique-pages-accessed count alongside; 64 KB wins.
 */

#include <optional>

#include "bench/benchutil.hh"
#include "gpu/launch.hh"

using namespace gpufs;

namespace {

constexpr char kPath[] = "/data/rand.bin";

/** --backend= selection for every run in this binary. */
storage::BackendKind gBackend = storage::BackendKind::Buffered;

struct RandomReadResult {
    Time elapsed;
    uint64_t uniquePages;
    uint64_t bytesRead;
    uint64_t raWasted;
    uint64_t vcHits = 0;
    uint64_t vcProbes = 0;
};

/** @p ra_pages is GpuFsParams::readAheadPages (unset = adaptive).
 *  @p cache_bytes shrinks the arena for the victim-tier section;
 *  @p victim_pages > 0 turns the host-RAM victim tier on. */
RandomReadResult
runRandomRead(uint64_t file_bytes, uint64_t page_size, unsigned blocks,
              unsigned reads_per_block, uint64_t read_size,
              std::optional<unsigned> ra_pages,
              uint64_t cache_bytes = 2 * GiB, uint64_t victim_pages = 0)
{
    core::GpuFsParams p;
    p.pageSize = page_size;
    p.cacheBytes = cache_bytes; // paper GPU: 6 GB; never the bottleneck
    p.readAheadPages = ra_pages;
    p.storageBackend = gBackend;
    p.victimCachePages = victim_pages;
    core::GpufsSystem sys(1, p);
    bench::addZerosFile(sys.hostFs(), kPath, file_bytes);
    bench::warmHostCache(sys.hostFs(), kPath);

    std::atomic<uint64_t> bytes{0};
    gpu::KernelStats ks = gpu::launch(
        sys.device(0), blocks, 512, [&](gpu::BlockCtx &ctx) {
            core::GpuFs &fs = sys.fs();
            int fd = fs.gopen(ctx, kPath, core::G_RDONLY);
            gpufs_assert(fd >= 0, "gopen failed");
            gpufs_assert(ctx.sharedMemBytes() >= read_size,
                         "scratchpad too small");
            uint64_t range = file_bytes - read_size;
            for (unsigned i = 0; i < reads_per_block; ++i) {
                uint64_t off = ctx.rng().nextBelow(range);
                int64_t n = fs.gread(ctx, fd, off, read_size,
                                     ctx.sharedMem());
                gpufs_assert(n == int64_t(read_size), "gread short");
                bytes.fetch_add(uint64_t(n));
            }
            fs.gclose(ctx, fd);
        });
    RandomReadResult res;
    res.elapsed = ks.elapsed();
    res.uniquePages = sys.fs().stats().counter("cache_misses").get();
    res.bytesRead = bytes.load();
    res.raWasted = sys.fs().stats().counter("ra_wasted").get();
    auto dsnap = sys.daemon().stats().snapshot();
    res.vcHits = dsnap["vc_hits"];
    res.vcProbes = dsnap["vc_hits"] + dsnap["vc_misses"] +
        dsnap["vc_version_stale"];
    return res;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Options opt = bench::parseOptions(
        argc, argv, 1.0, "Figure 6: random 32KB reads vs page size");
    gBackend = opt.backend;
    const uint64_t file_bytes = uint64_t(1e9 * opt.scale);
    const unsigned blocks = 112;
    const unsigned reads = 32;
    const uint64_t read_size = 32 * KiB;

    bench::printTitle(
        "Figure 6: random reads (112 blocks x 32 x 32KB from a " +
            std::to_string(file_bytes / 1000000) + " MB file, backend: " +
            storage::backendName(gBackend) + ")",
        "paper: both very small and very large pages hurt; 64K is "
        "best; effective bandwidth = data used / elapsed");

    // Paper rows (no read-ahead) next to the Adaptive policy: random
    // access must collapse the window, so both columns should match —
    // the fig4/fig6 tension a static window cannot resolve.
    std::printf("%-10s %14s %16s %16s %12s\n", "page_size",
                "unique_pages", "static0_MB/s", "adaptive_MB/s",
                "adaptive_ms");
    for (uint64_t page : bench::pageSweep()) {
        RandomReadResult r =
            runRandomRead(file_bytes, page, blocks, reads, read_size, 0);
        RandomReadResult a =
            runRandomRead(file_bytes, page, blocks, reads, read_size,
                          std::nullopt);
        std::printf("%-10s %14llu %16.0f %16.0f %12.1f\n",
                    bench::sizeLabel(page).c_str(),
                    static_cast<unsigned long long>(r.uniquePages),
                    throughputMBps(r.bytesRead, r.elapsed),
                    throughputMBps(a.bytesRead, a.elapsed),
                    toMillis(a.elapsed));
    }

    // The regression criterion, visible in the figure output: at the
    // paper's winning page size, static windows drag extra pages in
    // (and pay their transfer time) while Adaptive matches the
    // prefetch-free baseline. bench/ablate_readahead enforces the
    // <=5% bound as a benchsmoke test.
    const uint64_t page = 64 * KiB;
    std::printf("\n## Read-ahead policy at 64K pages (static windows "
                "vs adaptive)\n");
    std::printf("%-10s %14s %12s %16s %12s\n", "config", "unique_pages",
                "ra_wasted", "effective_MB/s", "elapsed_ms");
    struct Cfg {
        const char *name;
        std::optional<unsigned> ra;
    };
    const Cfg cfgs[] = {
        {"static_0", 0},
        {"static_4", 4},
        {"static_16", 16},
        {"adaptive", std::nullopt},
    };
    for (const Cfg &c : cfgs) {
        RandomReadResult r = runRandomRead(file_bytes, page, blocks,
                                           reads, read_size, c.ra);
        std::printf("%-10s %14llu %12llu %16.0f %12.1f\n", c.name,
                    static_cast<unsigned long long>(r.uniquePages),
                    static_cast<unsigned long long>(r.raWasted),
                    throughputMBps(r.bytesRead, r.elapsed),
                    toMillis(r.elapsed));
    }

    // Host-RAM victim tier on the paging variant of this shape: an
    // arena far smaller than the touched footprint evicts hot pages
    // between reads, and random access re-misses them. With the tier,
    // re-misses return from pinned host memory as one H2D DMA.
    std::printf("\n## Victim tier at 64K pages (arena smaller than the "
                "touched footprint)\n");
    std::printf("%-10s %16s %12s %12s\n", "tier", "effective_MB/s",
                "elapsed_ms", "vc_hit_%");
    const uint64_t small_arena = std::max<uint64_t>(
        file_bytes / 64 / page * page, 4 * page);
    const uint64_t tier_pages = file_bytes / page;
    for (uint64_t pages : {uint64_t(0), tier_pages}) {
        RandomReadResult r = runRandomRead(
            file_bytes, page, blocks, 4 * reads, read_size, 0,
            small_arena, pages);
        std::printf("%-10s %16.0f %12.1f %12.1f\n",
                    pages ? "on" : "off",
                    throughputMBps(r.bytesRead, r.elapsed),
                    toMillis(r.elapsed),
                    r.vcProbes
                        ? 100.0 * double(r.vcHits) / double(r.vcProbes)
                        : 0.0);
    }
    return 0;
}
