/**
 * @file
 * Ablation: the write path — batched WritePages write-back, with and
 * without the daemon's write-ahead journal.
 *
 * Every dirty page reaches the host through gfsync's (or eviction's)
 * WritePages RPCs: up to rpc::kMaxBatchPages dirty extents per request,
 * one request charge, one gathered pwritev, one D2H DMA reservation —
 * the write twin of the ReadPages batching in fig4. This bench runs a
 * sequential-write workload and gates the journal's cost on it.
 */

#include <algorithm>
#include <atomic>
#include <vector>

#include "bench/benchutil.hh"
#include "gpu/launch.hh"

using namespace gpufs;

namespace {

constexpr char kPath[] = "/data/wb.bin";
constexpr uint64_t kPage = 64 * KiB;

struct SeqResult {
    Time virt;               ///< whole-kernel virtual span
    double gfsyncMs;         ///< mean per-block gfsync latency (virtual)
    uint64_t writeRpcs;      ///< WritePages requests
    uint64_t pagesWritten;   ///< page extents written back
    uint64_t journalCommits; ///< write-ahead txns committed (journal on)
};

/** Sequential write: each block fills a disjoint span of the file,
 *  models a compute phase, then gfsyncs its range. @p journal enables
 *  the daemon's write-ahead journal; @p durable opens G_GDURABLE so
 *  write-backs actually ride it. */
SeqResult
runSeq(unsigned blocks, unsigned pages_per_block, bool journal = false,
       bool durable = false)
{
    const uint64_t span = uint64_t(pages_per_block) * kPage;
    const uint64_t file_bytes = uint64_t(blocks) * span;
    core::GpuFsParams params;
    params.pageSize = kPage;
    params.cacheBytes = file_bytes + 64 * kPage;
    params.journalWriteback = journal;
    core::GpufsSystem sys(1, params);
    bench::addZerosFile(sys.hostFs(), kPath, file_bytes,
                        /*writable=*/true);
    bench::warmHostCache(sys.hostFs(), kPath);

    const uint32_t oflags =
        core::G_RDWR | (durable ? core::G_GDURABLE : 0u);
    std::atomic<uint64_t> sync_total{0};
    gpu::KernelStats ks = gpu::launch(
        sys.device(0), blocks, 512, [&](gpu::BlockCtx &ctx) {
            core::GpuFs &fs = sys.fs();
            int fd = fs.gopen(ctx, kPath, oflags);
            gpufs_assert(fd >= 0, "gopen failed");
            std::vector<uint8_t> buf(kPage, uint8_t(ctx.blockId() + 1));
            uint64_t base = uint64_t(ctx.blockId()) * span;
            for (unsigned i = 0; i < pages_per_block; ++i) {
                fs.gwrite(ctx, fd, base + uint64_t(i) * kPage, kPage,
                          buf.data());
            }
            ctx.charge(20 * kMillisecond);  // post-write compute phase
            Time t0 = ctx.now();
            fs.gfsyncRange(ctx, fd, base, span);
            sync_total.fetch_add(ctx.now() - t0,
                                 std::memory_order_relaxed);
            fs.gclose(ctx, fd);
        });

    StatSet &st = sys.fs().stats();
    SeqResult r;
    r.virt = ks.elapsed();
    r.gfsyncMs = toMillis(sync_total.load() / blocks);
    r.writeRpcs = st.counter("batch_write_rpcs").get();
    r.pagesWritten = st.counter("batch_write_pages").get();
    r.journalCommits = sys.daemon().stats().counter("journal_commits").get();
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Options opt = bench::parseOptions(
        argc, argv, 1.0,
        "Ablation: batched write-back, journal off vs on");
    const unsigned blocks = 16;
    const unsigned pages_per_block =
        std::max(4u, unsigned(64 * opt.scale));

    bench::printTitle(
        "Ablation: write-back path — batched WritePages, write-ahead "
        "journal off vs on",
        "gfsync coalesces up to 16 dirty extents per WritePages RPC; "
        "G_GDURABLE journaling appends and commits each batch before "
        "its in-place write");

    // Two gates, both fatal (nonzero exit wired into ctest/CI):
    //  - with the journal ENABLED but no G_GDURABLE file, nothing may
    //    deviate from the no-journal baseline AT ALL. A multi-block
    //    kernel jitters ~1% from real-thread races on the serialized
    //    daemon, so this exactness gate runs the single-block shape,
    //    which is fully deterministic — identical to the nanosecond;
    //  - G_GDURABLE journaling (append + commit + journal fsync before
    //    every in-place write-back) must cost <= 15% span on the
    //    contended batched write-back workload, judged against the
    //    same run's baseline.
    bool fail = false;

    const unsigned solo_pages = 4 * pages_per_block;
    SeqResult sbase = runSeq(1, solo_pages);
    SeqResult sjoff = runSeq(1, solo_pages, /*journal=*/true,
                             /*durable=*/false);
    std::printf("#  journal-off identity (single block x %u pages, "
                "deterministic): base %.3f ms, journal-on+non-durable "
                "%.3f ms\n",
                solo_pages, toMillis(sbase.virt), toMillis(sjoff.virt));
    if (sjoff.virt != sbase.virt || sjoff.writeRpcs != sbase.writeRpcs ||
        sjoff.pagesWritten != sbase.pagesWritten ||
        sjoff.journalCommits != 0) {
        std::printf("#  FAIL: an enabled-but-unused journal perturbs "
                    "the non-durable path (must be byte-identical)\n");
        fail = true;
    }

    SeqResult base = runSeq(blocks, pages_per_block);
    SeqResult jdur = runSeq(blocks, pages_per_block, /*journal=*/true,
                            /*durable=*/true);
    std::printf("\n#  write-ahead journal cost (%u blocks x %u pages):\n",
                blocks, pages_per_block);
    std::printf("%-24s %12s %10s %12s %10s %14s %10s\n", "config",
                "kernel_ms", "vs_base", "write_rpcs", "pages/rpc",
                "mean_gfsync_ms", "jrnl_txns");
    auto row = [&](const char *name, const SeqResult &r) {
        std::printf("%-24s %12.1f %9.1f%% %12llu %10.1f %14.2f %10llu\n",
                    name, toMillis(r.virt),
                    100.0 * double(r.virt) / double(base.virt) - 100.0,
                    static_cast<unsigned long long>(r.writeRpcs),
                    r.writeRpcs
                        ? double(r.pagesWritten) / double(r.writeRpcs)
                        : 0.0,
                    r.gfsyncMs,
                    static_cast<unsigned long long>(r.journalCommits));
    };
    row("journal_off", base);
    row("journal_on+G_GDURABLE", jdur);
    double overhead = double(jdur.virt) / double(base.virt);
    std::printf("#  G_GDURABLE span overhead: %.1f%% (budget 15%%)\n",
                (overhead - 1.0) * 100.0);
    if (overhead > 1.15) {
        std::printf("#  FAIL: journaling costs more than 15%% span on "
                    "the batched write-back workload\n");
        fail = true;
    }
    if (jdur.journalCommits == 0) {
        std::printf("#  FAIL: durable run committed no journal txns — "
                    "gate measured nothing\n");
        fail = true;
    }
    return fail ? 1 : 0;
}
