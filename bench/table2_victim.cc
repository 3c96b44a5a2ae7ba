/**
 * @file
 * Host-RAM victim cache: eviction-as-demotion, re-miss as one H2D DMA.
 *
 * The tier's bargain: a page evicted from the frame arena is staged in
 * pinned host memory (one D2H on the dedicated host-staging timeline,
 * off the block's critical path), so a later re-miss costs one H2D DMA
 * instead of a storage round-trip. Two exit-nonzero gates pin down
 * both sides of that bargain:
 *
 *  1. WIN: on a skewed-reuse shape (blocks rescanning a hot region ~4x
 *     the arena, direct backend so every re-miss pays the device), the
 *     tier must win >= 1.5x end-to-end.
 *
 *  2. NEVER-HURTS: on a no-reuse streaming scan (every page touched
 *     once — demotions never pay off), the tier must not lose more
 *     than 2%: probes miss for free and demotion D2H never blocks the
 *     evicting thread.
 *
 * Plus a tier-capacity sweep (how much host RAM buys how much win) and
 * an eviction-policy ablation under the tier (paper tiered FIFO /
 * global LRU / 2Q-style scan resistance — once eviction is demotion,
 * WHAT gets evicted decides what the tier holds).
 */

#include <atomic>

#include "bench/benchutil.hh"
#include "gpu/launch.hh"

using namespace gpufs;

namespace {

constexpr char kPath[] = "/data/victim.bin";

struct RunResult {
    Time elapsed = 0;
    uint64_t vcInserts = 0;
    uint64_t vcHits = 0;
    uint64_t vcMisses = 0;
    uint64_t vcStale = 0;
    uint64_t vcEvictions = 0;
    uint64_t storageReads = 0;
};

void
snapshotVc(core::GpufsSystem &sys, RunResult *r)
{
    auto snap = sys.daemon().stats().snapshot();
    r->vcInserts = snap["vc_inserts"];
    r->vcHits = snap["vc_hits"];
    r->vcMisses = snap["vc_misses"];
    r->vcStale = snap["vc_version_stale"];
    r->vcEvictions = snap["vc_evictions"];
    r->storageReads = snap["storage_reads"];
}

/**
 * Skewed reuse: @p blocks blocks sweep a hot region of @p hot_bytes
 * @p rounds times, page by page through gmmap. The arena holds only
 * @p cache_bytes, so every round beyond the first re-misses everything
 * the previous round evicted — exactly the traffic demotion exists to
 * catch. Cold host semantics via the direct backend (cache-bypass
 * reads: a re-miss pays the device every time).
 */
RunResult
runSkewedReuse(storage::BackendKind kind, uint64_t hot_bytes,
               uint64_t page_size, uint64_t cache_bytes,
               uint64_t victim_pages, unsigned blocks, unsigned rounds,
               core::EvictionPolicyKind policy =
                   core::EvictionPolicyKind::PaperTiered)
{
    core::GpuFsParams p;
    p.pageSize = page_size;
    p.cacheBytes = cache_bytes;
    p.readAheadPages = 0;   // pure demand: isolate the re-miss cost
    p.storageBackend = kind;
    p.evictPolicy = policy;
    p.victimCachePages = victim_pages;
    core::GpufsSystem sys(1, p);
    bench::addZerosFile(sys.hostFs(), kPath, hot_bytes);

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
    snapshotVc(sys, &r);
    return r;
}

/**
 * No-reuse streaming scan: @p blocks blocks split @p file_bytes, every
 * page touched exactly once through a small arena. Demotions happen
 * (eviction churns constantly) but no probe ever pays off — the shape
 * the never-hurts gate runs on.
 */
RunResult
runStreamScan(uint64_t file_bytes, uint64_t page_size,
              uint64_t cache_bytes, uint64_t victim_pages,
              unsigned blocks)
{
    core::GpuFsParams p;
    p.pageSize = page_size;
    p.cacheBytes = cache_bytes;
    p.readAheadPages = 4;
    p.victimCachePages = victim_pages;
    core::GpufsSystem sys(1, p);
    bench::addZerosFile(sys.hostFs(), kPath, file_bytes);
    bench::warmHostCache(sys.hostFs(), kPath);

    const uint64_t span = (file_bytes + blocks - 1) / blocks
        / page_size * page_size;
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
    snapshotVc(sys, &r);
    return r;
}

double
hitRate(const RunResult &r)
{
    uint64_t probes = r.vcHits + r.vcMisses + r.vcStale;
    return probes ? 100.0 * double(r.vcHits) / double(probes) : 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Options opt = bench::parseOptions(
        argc, argv, 0.5,
        "Host-RAM victim cache: demotion-on-eviction win/never-hurts "
        "gates, tier-capacity sweep, eviction-policy ablation");
    bool fail = false;

    const uint64_t page = 64 * KiB;
    // Hot region ~4x the arena: every round re-misses what the last
    // one evicted. Tier sized to hold the whole hot set (2x margin).
    const uint64_t hot = std::max<uint64_t>(
        uint64_t(32 * MiB * opt.scale) / page * page, 16 * page);
    const uint64_t arena = std::max<uint64_t>(hot / 4, 4 * page);
    const uint64_t tier_pages = 2 * (hot / page);
    const unsigned blocks = 8, rounds = 3;

    // ---- Gate 1: skewed-reuse win ----
    {
        bench::printTitle(
            "Gate: skewed reuse, direct backend (" +
                std::to_string(hot / MiB) + " MB hot / " +
                std::to_string(arena / MiB) + " MB arena, " +
                std::to_string(rounds) + " rounds)",
            "re-misses pay the device without the tier, one H2D with "
            "it; demotion must win >= 1.5x");
        RunResult off = runSkewedReuse(storage::BackendKind::Direct, hot,
                                       page, arena, 0, blocks, rounds);
        RunResult on = runSkewedReuse(storage::BackendKind::Direct, hot,
                                      page, arena, tier_pages, blocks,
                                      rounds);
        double speedup = on.elapsed ? double(off.elapsed) / on.elapsed
                                    : 0.0;
        std::printf("tier off: %10.3f ms  %6llu storage reads\n",
                    toMillis(off.elapsed),
                    static_cast<unsigned long long>(off.storageReads));
        std::printf("tier on:  %10.3f ms  %6llu storage reads  "
                    "(%llu demoted, %.1f%% probe hits)\n",
                    toMillis(on.elapsed),
                    static_cast<unsigned long long>(on.storageReads),
                    static_cast<unsigned long long>(on.vcInserts),
                    hitRate(on));
        std::printf("# gate: speedup %.2fx must be >= 1.50x: %s\n",
                    speedup, speedup >= 1.5 ? "OK" : "FAIL");
        if (speedup < 1.5)
            fail = true;
    }

    // ---- Gate 2: no-reuse never-hurts ----
    {
        const uint64_t file = std::max<uint64_t>(
            uint64_t(128 * MiB * opt.scale) / page * page, 32 * page);
        bench::printTitle(
            "\nGate: no-reuse streaming scan (" +
                std::to_string(file / MiB) + " MB once through a " +
                std::to_string(arena / MiB) + " MB arena)",
            "every demotion is wasted work; the tier must cost <= 2%");
        RunResult off = runStreamScan(file, page, arena, 0, blocks);
        RunResult on = runStreamScan(file, page, arena, tier_pages,
                                     blocks);
        double ratio = off.elapsed ? double(on.elapsed) / off.elapsed
                                   : 1.0;
        std::printf("tier off: %10.3f ms\n", toMillis(off.elapsed));
        std::printf("tier on:  %10.3f ms  (%llu demoted, %llu probe "
                    "hits)\n",
                    toMillis(on.elapsed),
                    static_cast<unsigned long long>(on.vcInserts),
                    static_cast<unsigned long long>(on.vcHits));
        std::printf("# gate: overhead %.2f%% must be <= 2%%: %s\n",
                    (ratio - 1.0) * 100.0,
                    ratio <= 1.02 ? "OK" : "FAIL");
        if (ratio > 1.02)
            fail = true;
    }

    // ---- Tier-capacity sweep ----
    {
        bench::printTitle(
            "\nTier-capacity sweep (skewed reuse, direct backend)",
            "how much pinned host RAM buys how much win; a tier "
            "smaller than the hot set thrashes its own LRU");
        std::printf("%-12s %12s %10s %10s %12s\n", "tier", "elapsed_ms",
                    "speedup", "hit_%", "vc_evicted");
        RunResult base;
        for (uint64_t frac : {0ull, 4ull, 2ull, 1ull}) {
            uint64_t pages =
                frac == 0 ? 0 : (hot / page) * 2 / frac;
            RunResult r = runSkewedReuse(storage::BackendKind::Direct,
                                         hot, page, arena, pages,
                                         blocks, rounds);
            if (frac == 0)
                base = r;
            auto snap_label = frac == 0
                ? std::string("off")
                : bench::sizeLabel(pages * page);
            std::printf("%-12s %12.3f %9.2fx %10.1f %12llu\n",
                        snap_label.c_str(), toMillis(r.elapsed),
                        r.elapsed ? double(base.elapsed) / r.elapsed
                                  : 0.0,
                        hitRate(r),
                        static_cast<unsigned long long>(r.vcEvictions));
        }
    }

    // ---- Eviction-policy ablation under the tier ----
    {
        bench::printTitle(
            "\nEviction-policy ablation under the tier (skewed reuse)",
            "once eviction is demotion, the victim choice decides what "
            "the tier holds: paper tiered FIFO vs global LRU vs "
            "2Q-style scan resistance");
        std::printf("%-14s %12s %10s\n", "policy", "elapsed_ms",
                    "hit_%");
        const struct {
            core::EvictionPolicyKind kind;
            const char *name;
        } kPolicies[] = {
            {core::EvictionPolicyKind::PaperTiered, "paper_tiered"},
            {core::EvictionPolicyKind::GlobalLru, "global_lru"},
            {core::EvictionPolicyKind::TwoQ, "two_q"},
        };
        for (const auto &pol : kPolicies) {
            RunResult r = runSkewedReuse(storage::BackendKind::Direct,
                                         hot, page, arena, tier_pages,
                                         blocks, rounds, pol.kind);
            std::printf("%-14s %12.3f %10.1f\n", pol.name,
                        toMillis(r.elapsed), hitRate(r));
        }
    }

    std::printf("\n%s\n", fail ? "GATES: FAIL" : "GATES: OK");
    return fail ? 1 : 0;
}
