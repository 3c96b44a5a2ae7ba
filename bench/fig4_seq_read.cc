/**
 * @file
 * Figure 4: sequential read throughput vs. buffer-cache page size.
 *
 * Paper setup (§5.1.1): a 1.8 GB file transferred three ways — (a) a
 * 16-line GPU kernel mapping it through GPUfs (28 threadblocks, each
 * mapping one page at a time over a contiguous range), (b) a CUDA
 * pipeline preading page-sized chunks into pinned memory and enqueuing
 * async DMA, (c) one pread of the whole file plus one big DMA. The
 * file is warm in the CPU page cache. Expected shape: small pages
 * perform poorly, GPUfs overtakes whole-file transfer at 64 KB pages
 * and lands within ~5% of the hand-built pipeline; whole-file transfer
 * sits at ~2,100 MB/s against a 5,731 MB/s PCIe ceiling.
 */

#include <optional>

#include "bench/benchutil.hh"
#include "cuda/cudasim.hh"
#include "gpu/launch.hh"

using namespace gpufs;

namespace {

constexpr char kPath[] = "/data/seq.bin";

/** --backend= selection for the GPUfs runs (the CUDA baselines always
 *  go through the buffered host path, as the paper's did). */
storage::BackendKind gBackend = storage::BackendKind::Buffered;

struct GpufsRun {
    Time elapsed;
    uint64_t readRpcs;      ///< single-page ReadPage requests
    uint64_t batchRpcs;     ///< batched ReadPages requests
    uint64_t pages;         ///< pages fetched (cache misses)

    uint64_t totalRpcs() const { return readRpcs + batchRpcs; }
};

/** The GPUfs sequential-read kernel: the paper's "trivial 16 line
 *  GPU kernel". Each block maps its contiguous range page by page. */
GpufsRun
runGpufs(uint64_t file_bytes, uint64_t page_size,
         std::optional<unsigned> ra_pages = 0)
{
    core::GpuFsParams p;
    p.pageSize = page_size;
    // Cache sized to hold the file (the paper's 6 GB GPU does).
    p.cacheBytes = ((file_bytes / page_size) + 64) * page_size;
    // Static by default: the paper-parity sweep and the ra_pages=0
    // baseline of the RPC table must stay pure demand paging (the
    // adaptive default would prefetch parts of this scan itself).
    p.readAheadPages = ra_pages;
    p.storageBackend = gBackend;
    core::GpufsSystem sys(1, p);
    bench::addZerosFile(sys.hostFs(), kPath, file_bytes);
    bench::warmHostCache(sys.hostFs(), kPath);

    const unsigned blocks = sys.sim().params.waveSlots();   // 28
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
    GpufsRun r;
    r.elapsed = ks.elapsed();
    r.readRpcs = sys.fs().stats().counter("read_rpcs").get();
    r.batchRpcs = sys.fs().stats().counter("batch_read_rpcs").get();
    r.pages = sys.fs().stats().counter("cache_misses").get();
    return r;
}

/** CUDA pipeline baseline: pread chunk -> async DMA, double buffered. */
Time
runCudaPipeline(uint64_t file_bytes, uint64_t chunk)
{
    core::GpufsSystem sys(1);
    bench::addZerosFile(sys.hostFs(), kPath, file_bytes);
    bench::warmHostCache(sys.hostFs(), kPath);

    cudasim::CudaApp app(sys.device(0), sys.hostFs());
    int pin = app.hostAllocPinned(2 * chunk);
    Time t0 = app.now();    // buffers allocated outside the timed loop
    int fd = app.open(kPath, hostfs::O_RDONLY_F);
    cudasim::Stream stream;
    for (uint64_t off = 0; off < file_bytes; off += chunk) {
        uint64_t n = std::min(chunk, file_bytes - off);
        app.pread(fd, nullptr, n, off);
        app.memcpyH2DAsync(stream, n);
    }
    app.streamSync(stream);
    app.close(fd);
    app.hostFreePinned(pin);
    return app.now() - t0;
}

/** Whole-file baseline: one pread, one synchronous DMA. */
Time
runCudaWholeFile(uint64_t file_bytes)
{
    core::GpufsSystem sys(1);
    bench::addZerosFile(sys.hostFs(), kPath, file_bytes);
    bench::warmHostCache(sys.hostFs(), kPath);

    cudasim::CudaApp app(sys.device(0), sys.hostFs());
    int pin = app.hostAllocPinned(file_bytes);
    Time t0 = app.now();    // buffer allocated outside the timed loop
    int fd = app.open(kPath, hostfs::O_RDONLY_F);
    app.pread(fd, nullptr, file_bytes, 0);
    app.memcpyH2D(file_bytes);
    app.close(fd);
    app.hostFreePinned(pin);
    return app.now() - t0;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Options opt = bench::parseOptions(
        argc, argv, 1.0,
        "Figure 4: sequential read throughput vs page size");
    gBackend = opt.backend;
    const uint64_t file_bytes =
        uint64_t(1.8e9 * opt.scale) / MiB * MiB;    // paper: 1.8 GB

    bench::printTitle(
        "Figure 4: sequential file read, " +
            std::to_string(file_bytes / 1000000) + " MB file (backend: " +
            storage::backendName(gBackend) + ")",
        "paper: GPUfs beats whole-file at >=64K pages, within ~5% of "
        "the CUDA pipeline; whole-file ~2100 MB/s; PCIe max 5731 MB/s");

    sim::HwParams hw;
    Time whole = runCudaWholeFile(file_bytes);
    double whole_bw = throughputMBps(file_bytes, whole);

    std::printf("%-10s %14s %18s %18s\n", "page_size", "GPUfs_MB/s",
                "CUDA_pipeline_MB/s", "whole_file_MB/s");
    for (uint64_t page : bench::pageSweep()) {
        GpufsRun g = runGpufs(file_bytes, page);
        Time c = runCudaPipeline(file_bytes, page);
        std::printf("%-10s %14.0f %18.0f %18.0f\n",
                    bench::sizeLabel(page).c_str(),
                    throughputMBps(file_bytes, g.elapsed),
                    throughputMBps(file_bytes, c), whole_bw);
    }
    std::printf("# max PCIe bandwidth: %.0f MB/s\n", hw.pcieBwH2DMBps);

    // Extension: batched read-ahead. Sequential misses coalesce into
    // ReadPages batches, so the same scan issues far fewer RPCs (the
    // per-request CPU overhead and DMA setup amortize per batch).
    std::printf("\n## Batched read-ahead: RPC count for the same "
                "sequential scan (256K pages)\n");
    std::printf("%-9s %10s %11s %10s %8s %10s %11s\n", "ra_pages",
                "read_RPCs", "batch_RPCs", "total", "pages",
                "reduction", "GPUfs_MB/s");
    const uint64_t ra_page_size = 256 * KiB;
    uint64_t base_rpcs = 0;
    for (unsigned ra : {0u, 2u, 4u, 8u, 16u}) {
        GpufsRun g = runGpufs(file_bytes, ra_page_size, ra);
        if (ra == 0)
            base_rpcs = g.totalRpcs();
        std::printf("%-9u %10llu %11llu %10llu %8llu %9.1fx %11.0f\n",
                    ra,
                    static_cast<unsigned long long>(g.readRpcs),
                    static_cast<unsigned long long>(g.batchRpcs),
                    static_cast<unsigned long long>(g.totalRpcs()),
                    static_cast<unsigned long long>(g.pages),
                    double(base_rpcs) / std::max<uint64_t>(1, g.totalRpcs()),
                    throughputMBps(file_bytes, g.elapsed));
    }
    // Adaptive row for contrast: 28 blocks interleave their streams on
    // ONE file, so the per-file tracker reads the misses as random and
    // sits at the no-prefetch floor — the "never hurts" guarantee, not
    // the ramp (bench/ablate_readahead shows the ramp on clean
    // per-file streams).
    GpufsRun a = runGpufs(file_bytes, ra_page_size, std::nullopt);
    std::printf("%-9s %10llu %11llu %10llu %8llu %9.1fx %11.0f\n",
                "adaptive",
                static_cast<unsigned long long>(a.readRpcs),
                static_cast<unsigned long long>(a.batchRpcs),
                static_cast<unsigned long long>(a.totalRpcs()),
                static_cast<unsigned long long>(a.pages),
                double(base_rpcs) / std::max<uint64_t>(1, a.totalRpcs()),
                throughputMBps(file_bytes, a.elapsed));
    return 0;
}
