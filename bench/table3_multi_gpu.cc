/**
 * @file
 * Table 3: approximate image matching — 8-core CPU vs 1-4 GPUs, on a
 * no-match input (regular, scans everything) and an exact-match input
 * (irregular: matches end scans early and unbalance the static
 * partitioning).
 *
 * Paper numbers: no-match 119s CPU / 53-27-18-13s on 1-4 GPUs (near
 * linear, 4.1x at 4 GPUs); exact-match 100s CPU / 40-21-14-11s
 * (3.6x — static partitioning scales worse on irregular input). Runs
 * are warmed ("preliminary warmup ... prefetch the data into the CPU
 * buffer cache"); the WRAPFS consistency daemon stays in the loop.
 *
 * Queries are split among GPUs INTERLEAVED (GPU g takes queries
 * g, g+N, ...): a contiguous ceil(n/N) split hands the last GPU a
 * short tail, and the "slowest GPU" span then misreads scaling.
 *
 * Beyond the paper: the database scan is a SHARED working set (every
 * GPU reads every database), which is exactly where private per-GPU
 * caches bottleneck on the single host I/O path. The sharded-cache
 * section reruns the GPU rows with ShardPolicy::HashPageGroup —
 * non-owner misses become PeerReadPages serviced from the owner GPU's
 * resident frames over P2P channels — and reports per-GPU hit rate,
 * host read-RPC count and P2P-forwarded pages against the Private
 * baseline (which stays the default for the paper rows).
 */

#include <algorithm>
#include <thread>

#include "bench/benchutil.hh"
#include "workloads/kernels.hh"
#include "workloads/rates.hh"

using namespace gpufs;
using namespace gpufs::workloads;

namespace {

constexpr char kQueryPath[] = "/data/queries.bin";

/** Per-run cache/RPC observability (tentpole reporting). */
struct RunStats {
    Time span = 0;
    unsigned matches = 0;
    double hitRate[8] = {};         ///< per-GPU cache hit rate
    uint64_t hostPages = 0;         ///< pages fetched via host RPCs
    uint64_t peerForwarded = 0;     ///< pages served GPU-to-GPU
    uint64_t peerFallback = 0;      ///< non-owner misses host-served
    /** Daemon-side host fallbacks by reason, indexed by rpc::PeerCopy
     *  (the Served slot stays 0). */
    uint64_t fallbackWhy[rpc::kPeerCopyOutcomes] = {};
    uint64_t raStreamsActive = 0;   ///< max live read-ahead streams
    uint64_t raStreamRecycles = 0;  ///< stream-table LRU recycles
    uint64_t coalescedRpcs = 0;     ///< ReadPages riding a gathered read
    uint64_t hostReadCalls = 0;     ///< host read syscalls issued
    std::vector<bench::SlotPressureRow> pressure;
};

RunStats
runGpus(const std::vector<ImageDbSpec> &dbs, uint32_t num_queries,
        unsigned num_gpus, double threshold, double scale,
        core::ShardPolicy policy, bool report_pressure)
{
    core::GpuFsParams p;
    p.pageSize = 256 * KiB;
    p.cacheBytes = uint64_t(2.0 * scale * GiB);
    p.shardPolicy = policy;
    core::GpufsSystem sys(num_gpus, p);
    for (const auto &db : dbs)
        addImageDb(sys.hostFs(), db, 42);
    addQueryFile(sys.hostFs(), kQueryPath, 42, num_queries, dbs[0].dim);
    for (const auto &db : dbs)
        bench::warmHostCache(sys.hostFs(), db.path);
    bench::warmHostCache(sys.hostFs(), kQueryPath);

    // Interleaved query assignment (§5.2.1's static split, minus the
    // remainder imbalance); each GPU runs its kernel concurrently (own
    // host thread, shared daemon), and the job ends when the slowest
    // GPU finishes.
    std::vector<std::thread> threads;
    std::vector<ImageSearchGpuResult> results(num_gpus);
    for (unsigned g = 0; g < num_gpus; ++g) {
        threads.emplace_back([&, g] {
            results[g] = gpuImageSearch(sys.fs(g), sys.device(g), dbs,
                                        kQueryPath, g, num_queries,
                                        threshold, 28, 512,
                                        /*q_stride=*/num_gpus);
        });
    }
    for (auto &t : threads)
        t.join();

    RunStats out;
    for (unsigned g = 0; g < num_gpus && g < 8; ++g) {
        StatSet &st = sys.fs(g).stats();
        uint64_t hits = st.counter("cache_hits").get();
        uint64_t misses = st.counter("cache_misses").get();
        out.hitRate[g] = hits + misses
            ? double(hits) / double(hits + misses) : 0.0;
        // Pages, not RPCs: one batch RPC covers up to 16 pages, and
        // the peer-fallback figure below is in pages too.
        out.hostPages += st.counter("read_rpcs").get() +
            st.counter("batch_read_pages").get();
        out.peerForwarded += st.counter("peer_pages_forwarded").get();
        out.peerFallback += st.counter("peer_pages_fallback").get();
        out.raStreamsActive = std::max(
            out.raStreamsActive, st.counter("ra_streams_active").get());
        out.raStreamRecycles += st.counter("ra_stream_recycles").get();
    }
    for (unsigned r = 1; r < rpc::kPeerCopyOutcomes; ++r) {
        out.fallbackWhy[r] = sys.daemon().stats().counter(
            std::string("peer_fallback_") +
            rpc::peerCopyName(static_cast<rpc::PeerCopy>(r))).get();
    }
    out.coalescedRpcs = sys.daemon().stats().counter("coalesced_rpcs").get();
    out.hostReadCalls = sys.daemon().stats().counter("host_read_calls").get();
    if (report_pressure)
        out.pressure = bench::snapshotSlotPressure(sys);
    for (const auto &r : results) {
        out.span = std::max(out.span, r.elapsed);
        for (const auto &m : r.results)
            out.matches += m.found() ? 1 : 0;
    }
    return out;
}

void
reportIoScaling(const RunStats &r, const char *label)
{
    std::printf("#  %sio scaling: ra streams active(max) %llu, "
                "stream recycles %llu, coalesced rpcs %llu, "
                "host read calls %llu\n", label,
                static_cast<unsigned long long>(r.raStreamsActive),
                static_cast<unsigned long long>(r.raStreamRecycles),
                static_cast<unsigned long long>(r.coalescedRpcs),
                static_cast<unsigned long long>(r.hostReadCalls));
}

Time
runCpu(const std::vector<ImageDbSpec> &dbs, uint32_t num_queries,
       double threshold)
{
    sim::SimContext sim;
    hostfs::HostFs fs(sim);
    consistency::ConsistencyMgr mgr;
    consistency::WrapFs wrap(fs, mgr);
    for (const auto &db : dbs)
        addImageDb(fs, db, 42);
    for (const auto &db : dbs)
        bench::warmHostCache(fs, db.path);
    Time elapsed = 0;
    cpuImageSearch(wrap, dbs, 42, num_queries, threshold, &elapsed);
    return elapsed;
}

void
runInput(const char *label, bool planted, uint32_t num_queries,
         double scale, unsigned max_gpus)
{
    auto dbs = makePaperDbs(9, num_queries, planted, scale);
    double threshold = 1e-6;
    Time cpu = runCpu(dbs, num_queries, threshold);
    std::printf("%-12s CPUx8 %7.1fs |", label, toSeconds(cpu));
    Time one = 0;
    RunStats last;
    for (unsigned g = 1; g <= max_gpus; ++g) {
        RunStats r = runGpus(dbs, num_queries, g, threshold, scale,
                             core::ShardPolicy::Private,
                             /*report_pressure=*/g == max_gpus);
        if (g == 1)
            one = r.span;
        if (g == max_gpus)
            last = r;
        std::printf("  %uGPU %6.1fs (%.1fx)", g, toSeconds(r.span),
                    double(one) / double(r.span));
        if (planted && r.matches != num_queries)
            std::printf(" [!%u/%u matched]", r.matches, num_queries);
    }
    std::printf("\n");
    bench::reportSlotPressure(last.pressure);
    reportIoScaling(last, "");
}

/**
 * Sharded-vs-private ablation on the shared database scan: same
 * kernel, same inputs, ShardPolicy::HashPageGroup against the private
 * baseline at each GPU count. Reported per row: span, per-GPU hit
 * rate, host read RPCs, and the P2P forward fraction of non-owner
 * misses.
 */
void
runShardCompare(const char *label, bool planted, uint32_t num_queries,
                double scale, unsigned max_gpus)
{
    auto dbs = makePaperDbs(9, num_queries, planted, scale);
    double threshold = 1e-6;
    for (unsigned g = 2; g <= max_gpus; ++g) {
        RunStats pr = runGpus(dbs, num_queries, g, threshold, scale,
                              core::ShardPolicy::Private, false);
        RunStats sh = runGpus(dbs, num_queries, g, threshold, scale,
                              core::ShardPolicy::HashPageGroup,
                              /*report_pressure=*/g == max_gpus);
        double fwd_frac = sh.peerForwarded + sh.peerFallback
            ? double(sh.peerForwarded) /
                  double(sh.peerForwarded + sh.peerFallback)
            : 0.0;
        // Host-served pages count BOTH plain host fetches and the
        // pages of peer requests the owner could not serve (those
        // fall back to a host pread inside the peer RPC).
        std::printf("%-12s %uGPU  private %6.1fs | sharded %6.1fs "
                    "(%.2fx)  host-served pages %llu -> %llu  "
                    "p2p-forwarded %llu (%.0f%% of non-owner misses)\n",
                    label, g, toSeconds(pr.span), toSeconds(sh.span),
                    double(pr.span) / double(sh.span),
                    static_cast<unsigned long long>(
                        pr.hostPages + pr.peerFallback),
                    static_cast<unsigned long long>(
                        sh.hostPages + sh.peerFallback),
                    static_cast<unsigned long long>(sh.peerForwarded),
                    100.0 * fwd_frac);
        std::printf("#    sharded peer fallbacks by reason:");
        for (unsigned r = 1; r < rpc::kPeerCopyOutcomes; ++r) {
            std::printf(" %s %llu",
                        rpc::peerCopyName(static_cast<rpc::PeerCopy>(r)),
                        static_cast<unsigned long long>(sh.fallbackWhy[r]));
        }
        std::printf("\n");
        std::printf("#    per-GPU hit rate: private");
        for (unsigned i = 0; i < g; ++i)
            std::printf(" %.3f", pr.hitRate[i]);
        std::printf(" | sharded");
        for (unsigned i = 0; i < g; ++i)
            std::printf(" %.3f", sh.hitRate[i]);
        std::printf("\n");
        if (g == max_gpus) {
            bench::reportSlotPressure(sh.pressure, "sharded ");
            reportIoScaling(sh, "sharded ");
        }
    }
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Options opt = bench::parseOptions(
        argc, argv, 0.25,
        "Table 3: image matching, CPUx8 vs 1-4 GPUs, no-match and "
        "exact-match inputs; plus sharded-cache vs private ablation");
    const uint32_t num_queries = uint32_t(2016 * opt.scale);
    // RunStats carries 8 per-GPU hit-rate slots; cap the sweep there.
    const unsigned max_gpus = std::min(opt.gpus ? opt.gpus : 4u, 8u);

    bench::printTitle(
        "Table 3: approximate image matching scaling (speedups "
        "relative to 1 GPU)",
        "paper no-match: 119s CPU; 53/27/18/13s on 1-4 GPUs. "
        "exact-match: 100s CPU; 40/21/14/11s");

    runInput("no_match", false, num_queries, opt.scale, max_gpus);
    runInput("exact_match", true, num_queries, opt.scale, max_gpus);

    if (max_gpus >= 2) {
        std::printf("## Sharded multi-GPU cache vs private "
                    "(HashPageGroup; shared database working set)\n");
        runShardCompare("no_match", false, num_queries, opt.scale,
                        max_gpus);
    }
    return 0;
}
