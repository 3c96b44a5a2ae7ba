/**
 * @file
 * Cross-block I/O scaling on a SHARED file: 32-256 blocks of one
 * kernel scan disjoint regions of a single file — the workload that
 * defeats a per-file read-ahead tracker (interleaved per-block
 * sequential streams look like random I/O to a single stride
 * detector) and floods the daemon with concurrent same-file RPCs.
 *
 * Three configurations per block count:
 *  - demand-only (static_0): every page is its own RPC — the floor;
 *  - static_16: the hand-tuned window the paper would pick — batched
 *    RPCs regardless of interleaving, the target to match;
 *  - adaptive: the per-stream table must recognize each block's
 *    stream, ramp its window independently, and match static_16.
 *
 * A PRIVATE-scan control (same block count, each block streaming its
 * own equal-size file, adaptive policy) measures the single-stream
 * RPC reduction the tracker is capable of; the shared scan must
 * recover >= 90% of that reduction — the regression target for the
 * (file, stream) table.
 *
 * Also reported per run: daemon host read calls vs GPU-side read
 * RPCs (cross-slot aggregation makes the former smaller), coalesced
 * RPCs, doorbell rings suppressed, stream-table occupancy/recycles.
 *
 * The binary is its own regression guard (wired as a `benchsmoke`
 * ctest): it exits nonzero if adaptive is >10% slower than static_16
 * or needs >1.1x its RPCs on any shared-scan block count.
 */

#include <cstdlib>
#include <optional>

#include "bench/benchutil.hh"
#include "gpu/launch.hh"

using namespace gpufs;

namespace {

constexpr uint64_t kPage = 16 * KiB;

struct RunResult {
    Time span = 0;
    uint64_t rpcs = 0;              ///< read_rpcs + batch_read_rpcs
    uint64_t hostReadCalls = 0;     ///< daemon read syscalls issued
    uint64_t coalescedRpcs = 0;     ///< RPCs riding a gathered read
    uint64_t ringsSuppressed = 0;   ///< doorbell burst coalescing
    uint64_t raWasted = 0;
    uint64_t streamsActive = 0;     ///< stream-table high water
    uint64_t streamRecycles = 0;
};

void
snapshot(core::GpufsSystem &sys, RunResult &r)
{
    StatSet &st = sys.fs().stats();
    r.rpcs = st.counter("read_rpcs").get() +
        st.counter("batch_read_rpcs").get();
    r.raWasted = st.counter("ra_wasted").get();
    r.streamsActive = st.counter("ra_streams_active").get();
    r.streamRecycles = st.counter("ra_stream_recycles").get();
    r.hostReadCalls =
        sys.daemon().stats().counter("host_read_calls").get();
    r.coalescedRpcs =
        sys.daemon().stats().counter("coalesced_rpcs").get();
    r.ringsSuppressed = sys.rpcQueue(0).doorbellRingsSuppressed();
}

core::GpuFsParams
makeParams(std::optional<unsigned> read_ahead, uint64_t total_pages)
{
    core::GpuFsParams p;
    p.pageSize = kPage;
    // Every page fits plus slack: the run measures RPC scaling, not
    // eviction pressure.
    p.cacheBytes = (total_pages + 64) * kPage;
    p.readAheadPages = read_ahead;
    return p;
}

/** Shared scan: @p blocks blocks, block b streams region b of ONE
 *  file of blocks x @p pages_per_block pages. */
RunResult
runShared(std::optional<unsigned> read_ahead, unsigned blocks,
          uint64_t pages_per_block)
{
    const uint64_t chunk = pages_per_block * kPage;
    const uint64_t file_bytes = blocks * chunk;
    core::GpufsSystem sys(1,
                          makeParams(read_ahead, blocks * pages_per_block));
    bench::addZerosFile(sys.hostFs(), "/data/shared", file_bytes);
    bench::warmHostCache(sys.hostFs(), "/data/shared");

    gpu::KernelStats ks = gpu::launch(
        sys.device(0), blocks, 256, [&](gpu::BlockCtx &ctx) {
            core::GpuFs &fs = sys.fs();
            int fd = fs.gopen(ctx, "/data/shared", core::G_RDONLY);
            gpufs_assert(fd >= 0, "gopen failed");
            std::vector<uint8_t> buf(kPage);
            const uint64_t begin = ctx.blockId() * chunk;
            for (uint64_t off = begin; off < begin + chunk;
                 off += kPage) {
                int64_t n = fs.gread(ctx, fd, off, kPage, buf.data());
                gpufs_assert(n == int64_t(kPage), "gread short");
            }
            fs.gclose(ctx, fd);
        });
    RunResult r;
    r.span = ks.elapsed();
    snapshot(sys, r);
    return r;
}

/** Private control: same block count and bytes, but each block
 *  streams its OWN file — one stream per file, the tracker's easy
 *  case. */
RunResult
runPrivate(std::optional<unsigned> read_ahead, unsigned blocks,
           uint64_t pages_per_block)
{
    const uint64_t chunk = pages_per_block * kPage;
    core::GpufsSystem sys(1,
                          makeParams(read_ahead, blocks * pages_per_block));
    for (unsigned b = 0; b < blocks; ++b) {
        std::string path = "/data/priv" + std::to_string(b);
        bench::addZerosFile(sys.hostFs(), path, chunk);
        bench::warmHostCache(sys.hostFs(), path);
    }

    gpu::KernelStats ks = gpu::launch(
        sys.device(0), blocks, 256, [&](gpu::BlockCtx &ctx) {
            core::GpuFs &fs = sys.fs();
            std::string path =
                "/data/priv" + std::to_string(ctx.blockId());
            int fd = fs.gopen(ctx, path, core::G_RDONLY);
            gpufs_assert(fd >= 0, "gopen failed");
            std::vector<uint8_t> buf(kPage);
            for (uint64_t off = 0; off < chunk; off += kPage) {
                int64_t n = fs.gread(ctx, fd, off, kPage, buf.data());
                gpufs_assert(n == int64_t(kPage), "gread short");
            }
            fs.gclose(ctx, fd);
        });
    RunResult r;
    r.span = ks.elapsed();
    snapshot(sys, r);
    return r;
}

void
printRow(const char *name, const RunResult &r)
{
    std::printf("%-12s %9llu %10llu %10llu %11llu %9llu %8llu/%-6llu "
                "%10.2f\n",
                name,
                static_cast<unsigned long long>(r.rpcs),
                static_cast<unsigned long long>(r.hostReadCalls),
                static_cast<unsigned long long>(r.coalescedRpcs),
                static_cast<unsigned long long>(r.ringsSuppressed),
                static_cast<unsigned long long>(r.raWasted),
                static_cast<unsigned long long>(r.streamsActive),
                static_cast<unsigned long long>(r.streamRecycles),
                toMillis(r.span));
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Options opt = bench::parseOptions(
        argc, argv, 1.0,
        "Shared-file scan scaling: 32-256 blocks, demand-only vs "
        "tuned static_16 vs per-stream adaptive read-ahead, with a "
        "private-scan control and the >=90% recovery guard");

    // 256 pages/stream keeps the guard out of the ramp-dominated
    // regime (see ablate_readahead's kGuardMinPages reasoning); the
    // block-count sweep is what --scale trims for smoke runs.
    const uint64_t pages_per_block = 256;
    std::vector<unsigned> counts;
    for (unsigned c = 32; c <= std::max(32u, unsigned(256 * opt.scale));
         c *= 2) {
        counts.push_back(c);
    }

    bench::printTitle(
        "Shared-file scan: cross-block read-ahead + RPC aggregation "
        "scaling",
        "per-stream adaptive must match tuned static_16 on a shared "
        "file (exit 1 if >10% slower or >1.1x RPCs) and recover >=90% "
        "of the private-scan RPC reduction");

    bool fail = false;
    for (unsigned blocks : counts) {
        std::printf("\n## %u blocks x %llu x 16K pages, one shared "
                    "file (private control: %u private files)\n",
                    blocks,
                    static_cast<unsigned long long>(pages_per_block),
                    blocks);
        std::printf("%-12s %9s %10s %10s %11s %9s %15s %10s\n",
                    "config", "rpcs", "host_reads", "coalesced",
                    "rings_supp", "ra_wasted", "streams/recycle",
                    "span_ms");
        RunResult demand = runShared(0, blocks, pages_per_block);
        RunResult tuned = runShared(16, blocks, pages_per_block);
        RunResult adaptive =
            runShared(std::nullopt, blocks, pages_per_block);
        RunResult control =
            runPrivate(std::nullopt, blocks, pages_per_block);
        printRow("demand_only", demand);
        printRow("static_16", tuned);
        printRow("adaptive", adaptive);
        printRow("priv_control", control);

        // Recovery: how much of the RPC reduction the tracker manages
        // on its easy case (one stream per file) survives the shared
        // file. demand_only issues one RPC per page either way, so it
        // is the common baseline.
        const double shared_cut = double(demand.rpcs) -
            double(adaptive.rpcs);
        const double private_cut = double(demand.rpcs) -
            double(control.rpcs);
        const double recovery =
            private_cut > 0 ? shared_cut / private_cut : 1.0;
        const double rpc_ratio = tuned.rpcs
            ? double(adaptive.rpcs) / double(tuned.rpcs) : 1.0;
        const double span_ratio = double(adaptive.span) /
            double(tuned.span);
        std::printf("#  adaptive vs static_16: %.3fx RPCs, %.3fx span; "
                    "shared recovers %.0f%% of private RPC cut; "
                    "host reads %llu for %llu read RPCs\n",
                    rpc_ratio, span_ratio, 100.0 * recovery,
                    static_cast<unsigned long long>(
                        adaptive.hostReadCalls),
                    static_cast<unsigned long long>(adaptive.rpcs));
        if (rpc_ratio > 1.1 || span_ratio > 1.1 || recovery < 0.9) {
            std::fprintf(stderr,
                         "FAIL at %u blocks: adaptive %.3fx RPCs / "
                         "%.3fx span of static_16, %.0f%% recovery "
                         "(need <=1.1x, <=1.1x, >=90%%)\n",
                         blocks, rpc_ratio, span_ratio,
                         100.0 * recovery);
            fail = true;
        }
    }
    if (fail)
        return 1;
    std::printf("\n# PASS: per-stream adaptive matches tuned static "
                "on the shared scan at every block count\n");
    return 0;
}
