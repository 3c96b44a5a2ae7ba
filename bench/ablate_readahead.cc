/**
 * @file
 * Read-ahead ablation: Static{0,4,16} windows vs the Adaptive policy,
 * over the two workloads whose tension motivates it —
 *
 *  - a fig4-style SEQUENTIAL scan (each block streams its own file, so
 *    per-file trackers see clean streams): the static window's batched
 *    ReadPages win is the target to match;
 *  - a fig6-style RANDOM workload (many blocks, random 32 KB reads of
 *    one file): the static window's wasted pages and PCIe traffic are
 *    the cost to avoid; readAheadPages=0 is the target to match.
 *
 * The paper picks ONE readAheadPages for both and loses on one of
 * them. Adaptive must win both: it ramps to the full window on the
 * scan and collapses to zero on the random reads. The binary is its
 * own regression guard ("never hurts"): it exits nonzero if Adaptive's
 * span is more than 5% worse than the BEST static configuration on
 * either workload — wired as a `benchsmoke` ctest so the property
 * cannot rot.
 */

#include <cstdlib>
#include <optional>

#include "bench/benchutil.hh"
#include "gpu/launch.hh"

using namespace gpufs;

namespace {

struct RaConfig {
    const char *name;
    std::optional<unsigned> readAheadPages;  // GpuFsParams encoding
};

const RaConfig kConfigs[] = {
    {"static_0", 0},
    {"static_4", 4},
    {"static_16", 16},
    {"adaptive", std::nullopt},
};

struct RunResult {
    Time span = 0;
    uint64_t rpcs = 0;          ///< read_rpcs + batch_read_rpcs
    uint64_t pages = 0;         ///< pages fetched (cache_misses)
    uint64_t raWasted = 0;      ///< speculative pages evicted unused
    uint64_t bytesUsed = 0;     ///< bytes the application consumed
};

void
snapshot(core::GpufsSystem &sys, RunResult &r)
{
    StatSet &st = sys.fs().stats();
    r.rpcs = st.counter("read_rpcs").get() +
        st.counter("batch_read_rpcs").get();
    r.pages = st.counter("cache_misses").get();
    r.raWasted = st.counter("ra_wasted").get();
}

/** Fig4-style: @p blocks blocks, each streaming its own file. */
RunResult
runSequential(const RaConfig &cfg, uint64_t file_bytes, unsigned blocks)
{
    constexpr uint64_t kPage = 16 * KiB;
    core::GpuFsParams p;
    p.pageSize = kPage;
    p.cacheBytes =
        ((uint64_t(blocks) * file_bytes / kPage) + 64) * kPage;
    p.readAheadPages = cfg.readAheadPages;
    core::GpufsSystem sys(1, p);
    for (unsigned b = 0; b < blocks; ++b) {
        std::string path = "/data/seq" + std::to_string(b);
        bench::addZerosFile(sys.hostFs(), path, file_bytes);
        bench::warmHostCache(sys.hostFs(), path);
    }

    gpu::KernelStats ks = gpu::launch(
        sys.device(0), blocks, 256, [&](gpu::BlockCtx &ctx) {
            core::GpuFs &fs = sys.fs();
            std::string path =
                "/data/seq" + std::to_string(ctx.blockId());
            int fd = fs.gopen(ctx, path, core::G_RDONLY);
            gpufs_assert(fd >= 0, "gopen failed");
            std::vector<uint8_t> buf(kPage);
            for (uint64_t off = 0; off < file_bytes; off += kPage) {
                int64_t n = fs.gread(ctx, fd, off, kPage, buf.data());
                gpufs_assert(n == int64_t(kPage), "gread short");
            }
            fs.gclose(ctx, fd);
        });
    RunResult r;
    r.span = ks.elapsed();
    r.bytesUsed = uint64_t(blocks) * file_bytes;
    snapshot(sys, r);
    return r;
}

/** Fig6-style: @p blocks blocks, random 32 KB reads of one file. */
RunResult
runRandom(const RaConfig &cfg, uint64_t file_bytes, unsigned blocks,
          unsigned reads_per_block)
{
    constexpr uint64_t kPage = 64 * KiB;    // fig6's winning page size
    constexpr uint64_t kRead = 32 * KiB;
    core::GpuFsParams p;
    p.pageSize = kPage;
    p.cacheBytes = 2 * ((file_bytes / kPage) + 64) * kPage;
    p.readAheadPages = cfg.readAheadPages;
    core::GpufsSystem sys(1, p);
    bench::addZerosFile(sys.hostFs(), "/data/rand", file_bytes);
    bench::warmHostCache(sys.hostFs(), "/data/rand");

    std::atomic<uint64_t> bytes{0};
    gpu::KernelStats ks = gpu::launch(
        sys.device(0), blocks, 256, [&](gpu::BlockCtx &ctx) {
            core::GpuFs &fs = sys.fs();
            int fd = fs.gopen(ctx, "/data/rand", core::G_RDONLY);
            gpufs_assert(fd >= 0, "gopen failed");
            std::vector<uint8_t> buf(kRead);
            uint64_t range = file_bytes - kRead;
            for (unsigned i = 0; i < reads_per_block; ++i) {
                uint64_t off = ctx.rng().nextBelow(range);
                int64_t n = fs.gread(ctx, fd, off, kRead, buf.data());
                gpufs_assert(n == int64_t(kRead), "gread short");
                bytes.fetch_add(uint64_t(n));
            }
            fs.gclose(ctx, fd);
        });
    RunResult r;
    r.span = ks.elapsed();
    r.bytesUsed = bytes.load();
    snapshot(sys, r);
    return r;
}

/**
 * Virtual spans carry a little run-to-run noise (real threads race
 * for resource-timeline reservations), so each config takes the best
 * of @p reps runs — the same treatment for every config, converging
 * on the deterministic ideal the guard should compare.
 */
template <typename RunFn>
RunResult
bestOf(unsigned reps, RunFn &&run)
{
    RunResult best = run();
    for (unsigned i = 1; i < reps; ++i) {
        RunResult r = run();
        if (r.span < best.span)
            best = r;
    }
    return best;
}

void
printRow(const char *name, const RunResult &r)
{
    std::printf("%-10s %10llu %10llu %10llu %12.2f %12.0f\n", name,
                static_cast<unsigned long long>(r.rpcs),
                static_cast<unsigned long long>(r.pages),
                static_cast<unsigned long long>(r.raWasted),
                toMillis(r.span),
                throughputMBps(r.bytesUsed, r.span));
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Options opt = bench::parseOptions(
        argc, argv, 0.5,
        "Read-ahead ablation: Static{0,4,16} vs Adaptive over "
        "sequential (fig4) and random (fig6) workloads, with the "
        "never-hurts exit guard");
    const uint64_t seq_file =
        std::max<uint64_t>(uint64_t(12e6 * opt.scale), 64 * 16 * KiB) /
        (16 * KiB) * (16 * KiB);
    const uint64_t rand_file =
        std::max<uint64_t>(uint64_t(256e6 * opt.scale), 4 * MiB);
    const unsigned rand_reads =
        std::max<unsigned>(4, unsigned(32 * opt.scale));

    bench::printTitle(
        "Read-ahead ablation: adaptive window vs static windows",
        "adaptive must match the best static on BOTH workloads "
        "(exit 1 if >5% slower on either) — the knob the paper "
        "hand-tunes, closed by prefetch feedback");

    std::printf("\n## Sequential scan (4 blocks x %llu MB private "
                "files, 16K pages, warm host cache)\n",
                static_cast<unsigned long long>(seq_file / 1000000));
    std::printf("%-10s %10s %10s %10s %12s %12s\n", "config", "rpcs",
                "pages", "ra_wasted", "span_ms", "MB/s");
    RunResult seq[4];
    for (unsigned c = 0; c < 4; ++c) {
        seq[c] = bestOf(3, [&] {
            return runSequential(kConfigs[c], seq_file, 4);
        });
        printRow(kConfigs[c].name, seq[c]);
    }

    std::printf("\n## Random reads (28 blocks x %u x 32K from a "
                "%llu MB file, 64K pages, warm host cache)\n",
                rand_reads,
                static_cast<unsigned long long>(rand_file / 1000000));
    std::printf("%-10s %10s %10s %10s %12s %12s\n", "config", "rpcs",
                "pages", "ra_wasted", "span_ms", "MB/s");
    RunResult rnd[4];
    for (unsigned c = 0; c < 4; ++c) {
        rnd[c] = bestOf(3, [&] {
            return runRandom(kConfigs[c], rand_file, 28, rand_reads);
        });
        printRow(kConfigs[c].name, rnd[c]);
    }

    // ---- the never-hurts guard ----
    // The guard judges STEADY-STATE behavior: below ~256 pages per
    // stream the adaptive ramp (a handful of demand misses before the
    // window opens) dominates a short file and the span ratio says
    // nothing about the policy — refuse to judge rather than fail
    // spuriously. The wired benchsmoke scale (0.5) is well above this.
    constexpr uint64_t kGuardMinPages = 256;
    if (seq_file / (16 * KiB) < kGuardMinPages) {
        std::printf("# guard skipped: %llu pages/stream is "
                    "ramp-dominated (need >= %llu; run --scale>=0.4)\n",
                    static_cast<unsigned long long>(seq_file /
                                                    (16 * KiB)),
                    static_cast<unsigned long long>(kGuardMinPages));
        return 0;
    }
    auto best_static = [](const RunResult *r) {
        Time best = r[0].span;
        for (unsigned c = 1; c < 3; ++c)
            best = std::min(best, r[c].span);
        return best;
    };
    const Time seq_best = best_static(seq);
    const Time rnd_best = best_static(rnd);
    const double seq_ratio = double(seq[3].span) / double(seq_best);
    const double rnd_ratio = double(rnd[3].span) / double(rnd_best);
    std::printf("\n# adaptive vs best static: sequential %.3fx "
                "(best %s), random %.3fx (best %s)\n",
                seq_ratio,
                seq[0].span == seq_best
                    ? "static_0"
                    : (seq[1].span == seq_best ? "static_4"
                                               : "static_16"),
                rnd_ratio,
                rnd[0].span == rnd_best
                    ? "static_0"
                    : (rnd[1].span == rnd_best ? "static_4"
                                               : "static_16"));
    std::printf("# adaptive RPCs: sequential %llu vs tuned static_16 "
                "%llu; random wasted pages: adaptive %llu vs "
                "static_16 %llu\n",
                static_cast<unsigned long long>(seq[3].rpcs),
                static_cast<unsigned long long>(seq[2].rpcs),
                static_cast<unsigned long long>(rnd[3].raWasted),
                static_cast<unsigned long long>(rnd[2].raWasted));
    if (seq_ratio > 1.05 || rnd_ratio > 1.05) {
        std::fprintf(stderr,
                     "FAIL: adaptive read-ahead is >5%% slower than "
                     "the best static window (seq %.3fx, rand %.3fx) "
                     "— the never-hurts guarantee is broken\n",
                     seq_ratio, rnd_ratio);
        return 1;
    }
    std::printf("# PASS: adaptive within 5%% of the best static on "
                "both workloads\n");
    return 0;
}
