/**
 * @file
 * Async-overlap figure: double-buffered streaming read+process vs the
 * synchronous Table-1 wrappers, on the same cost model.
 *
 * The GPUfs API is synchronous at threadblock granularity: a block can
 * never overlap its OWN compute with its OWN I/O — latency can only be
 * hidden by *other* blocks ("GPU System Calls", Veselý et al., argues
 * non-blocking GPU syscalls are the fix). The non-blocking core
 * (gread_async/gwait) closes that gap: a double-buffered scan submits
 * chunk i+1, processes chunk i while the daemon fetches, and waits a
 * token that usually is already complete.
 *
 * The sweep shows where the win lives: at low occupancy (few resident
 * blocks) the overlap reclaims nearly all of the I/O time (the
 * headline row must clear >= 1.3x); as occupancy approaches the wave
 * width, other blocks already hide the latency (the paper's design
 * point) and both APIs converge on the disk-bound ceiling.
 */

#include "bench/benchutil.hh"
#include "gpu/launch.hh"

using namespace gpufs;

namespace {

constexpr char kPath[] = "/data/stream.bin";
constexpr uint64_t kChunk = 256 * KiB;

/** Cold-read virtual time of one chunk (granule misses on the disk). */
Time
chunkDiskTime(const sim::HwParams &hw)
{
    uint64_t granules = kChunk / hw.hostCacheGranule;
    return granules *
        (hw.diskAccessLat + transferTime(hw.hostCacheGranule,
                                         hw.diskReadMBps));
}

/** One streaming read+process scan; @return kernel virtual time. */
Time
runScan(uint64_t file_bytes, unsigned blocks, Time compute_per_chunk,
        bool use_async)
{
    core::GpuFsParams p;
    p.pageSize = kChunk;
    p.cacheBytes = ((file_bytes / kChunk) + 32) * kChunk;
    // This figure isolates the async CORE's overlap win, so read-ahead
    // stays off: adaptive read-ahead (the default) gives the sync loop
    // most of the same overlap for free on this sequential scan —
    // bench/ablate_readahead measures that effect on its own.
    p.readAheadPages = 0;
    core::GpufsSystem sys(1, p);
    bench::addZerosFile(sys.hostFs(), kPath, file_bytes);
    // Cold host cache: the interesting regime is fetch latency far
    // above the per-page map overhead (disk-bound streaming).

    const uint64_t span =
        (file_bytes / blocks) / kChunk * kChunk;    // chunk-aligned
    gpu::KernelStats ks = gpu::launch(
        sys.device(0), blocks, 512, [&](gpu::BlockCtx &ctx) {
            core::GpuFs &fs = sys.fs();
            int fd = fs.gopen(ctx, kPath, core::G_RDONLY);
            gpufs_assert(fd >= 0, "gopen failed");
            const uint64_t base = ctx.blockId() * span;
            std::vector<uint8_t> bufs[2] = {
                std::vector<uint8_t>(kChunk),
                std::vector<uint8_t>(kChunk)};
            const unsigned chunks = unsigned(span / kChunk);
            if (!use_async) {
                for (unsigned i = 0; i < chunks; ++i) {
                    int64_t n = fs.gread(ctx, fd, base + i * kChunk,
                                         kChunk, bufs[0].data());
                    gpufs_assert(core::gok(n), "gread failed");
                    ctx.charge(compute_per_chunk);
                }
            } else {
                core::IoToken cur = fs.gread_async(ctx, fd, base, kChunk,
                                                   bufs[0].data());
                for (unsigned i = 0; i < chunks; ++i) {
                    core::IoToken next;
                    if (i + 1 < chunks) {
                        next = fs.gread_async(
                            ctx, fd, base + (i + 1) * kChunk, kChunk,
                            bufs[(i + 1) % 2].data());
                    }
                    int64_t n = fs.gwait(ctx, cur);
                    gpufs_assert(core::gok(n), "gwait failed");
                    ctx.charge(compute_per_chunk);
                    cur = next;
                }
            }
            fs.gclose(ctx, fd);
        });
    return ks.elapsed();
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Options opt = bench::parseOptions(
        argc, argv, 0.25,
        "Async overlap: double-buffered streaming scan (gread_async/"
        "gwait) vs the synchronous wrappers");
    const uint64_t file_bytes =
        std::max<uint64_t>(uint64_t(256e6 * opt.scale) / kChunk, 28 * 4) *
        kChunk;

    sim::HwParams hw;
    const Time io = chunkDiskTime(hw);

    bench::printTitle(
        "Async overlap: " + std::to_string(file_bytes / 1000000) +
            " MB cold streaming scan, 256K chunks",
        "double-buffering hides a block's own fetch behind its own "
        "compute; >= 1.3x expected at low occupancy");

    std::printf("\n## Occupancy sweep (compute/chunk = 1x disk time = "
                "%llu us)\n",
                static_cast<unsigned long long>(io / 1000));
    std::printf("%-8s %12s %12s %9s\n", "blocks", "sync_ms", "async_ms",
                "speedup");
    double headline = 0;
    for (unsigned blocks : {1u, 2u, 4u, 14u, 28u}) {
        Time s = runScan(file_bytes, blocks, io, false);
        Time a = runScan(file_bytes, blocks, io, true);
        double speedup = double(s) / double(a);
        if (blocks == 1)
            headline = speedup;
        std::printf("%-8u %12.2f %12.2f %8.2fx\n", blocks, s / 1e6,
                    a / 1e6, speedup);
    }

    std::printf("\n## Compute-intensity sweep (1 block)\n");
    std::printf("%-14s %12s %12s %9s\n", "compute/chunk", "sync_ms",
                "async_ms", "speedup");
    for (double mult : {0.25, 0.5, 1.0, 2.0, 4.0}) {
        Time c = Time(double(io) * mult);
        Time s = runScan(file_bytes, 1, c, false);
        Time a = runScan(file_bytes, 1, c, true);
        char label[16];
        std::snprintf(label, sizeof(label), "%.2fx", mult);
        std::printf("%-14s %12.2f %12.2f %8.2fx\n", label, s / 1e6,
                    a / 1e6, double(s) / double(a));
    }

    std::printf("\n# headline (1 block, balanced compute): %.2fx "
                "(acceptance floor 1.3x)\n", headline);
    return headline >= 1.3 ? 0 : 1;
}
