/**
 * @file
 * GPUfs instance configuration.
 */

#ifndef GPUFS_GPUFS_PARAMS_HH
#define GPUFS_GPUFS_PARAMS_HH

#include <cstdint>
#include <optional>

#include "base/units.hh"
#include "storage/kind.hh"

namespace gpufs {
namespace core {

/**
 * Serving-tier tenants. A TenantId rides the gopen flag word (see
 * GOpenFlags) into the CacheFile, is stamped into every frame the
 * tenant faults, and travels in each RPC so the daemon can schedule
 * slots fairly. Tenant 0 is the default — single-tenant workloads
 * never see any of the machinery.
 */
using TenantId = uint8_t;
constexpr unsigned kMaxTenants = 4;

/**
 * Frame-reclamation policies (BufferCache::EvictionPolicy variants).
 *
 * PaperTiered is §4.2's constant-work order: closed clean files first
 * (no GPU-CPU communication), then open read-only files, then writable
 * files as a last resort. GlobalLru is an ablation policy wired into
 * bench/ablate_eviction: it scans every frame for the globally oldest
 * access stamp (the variable-work shape the paper rejects because
 * paging hijacks application threads).
 */
enum class EvictionPolicyKind : uint8_t {
    PaperTiered,
    GlobalLru,
    /** 2Q-style: frames pinned once (probationary — a scan touches a
     *  page exactly once) are evicted before frames pinned repeatedly
     *  (protected), each set in global LRU order. Same full-scan work
     *  shape as GlobalLru; the ablation case for scan pollution under
     *  a victim tier, where protecting the reused set decides which
     *  pages re-miss cheaply. */
    TwoQ,
};

/**
 * Multi-GPU cache-sharding policies (core::ShardMap variants).
 *
 * The paper's multi-GPU runs (§5.2.1, Table 3) keep a private buffer
 * cache per GPU, so every GPU re-fetches shared data through the host
 * and the single CPU I/O path becomes the bottleneck exactly when the
 * working set is shared. Sharding assigns every (file, page-group) an
 * owner GPU; a non-owner miss becomes a PeerReadPages RPC the daemon
 * resolves from the owner's resident frames over a simulated P2P DMA
 * channel, falling back to the normal host path when the owner does
 * not hold the page.
 */
enum class ShardPolicy : uint8_t {
    /** Paper baseline: every GPU caches privately, no peer traffic.
     *  Also the effective policy whenever the system has one GPU. */
    Private,
    /** Page groups of GpuFsParams::shardPagesPerGroup pages hash to
     *  owners, spreading each file across all GPUs (the default for
     *  striped shared working sets). */
    HashPageGroup,
    /** Whole files hash to owners (cheap map, good when the working
     *  set is many files of similar heat). */
    FileAffinity,
};

struct GpuFsParams {
    /**
     * Buffer-cache page size. "Performance considerations typically
     * dictate page sizes larger than OS-managed pages — e.g. 256 KB"
     * (§4.2); Figures 4-6 sweep 16 KB .. 16 MB. Must be a power of two.
     */
    uint64_t pageSize = 256 * KiB;

    /** Total buffer-cache capacity (the raw data array size, §4.2). */
    uint64_t cacheBytes = 1 * GiB;

    /** Open + closed file table capacity. */
    unsigned maxOpenFiles = 128;

    /**
     * Ablation (Figure 7): when true, every radix-tree traversal takes
     * node locks instead of the lock-free seqlock-validated path.
     */
    bool forceLockedTraversal = false;

    /** Frame-reclamation policy (see EvictionPolicyKind). */
    EvictionPolicyKind evictPolicy = EvictionPolicyKind::PaperTiered;

    /**
     * Read-ahead window: pages prefetched past a buffer-cache miss.
     * Runs of missing pages are coalesced into batched ReadPages RPCs
     * of up to rpc::kMaxBatchPages each, so the per-request CPU and
     * DMA-setup overheads are paid once per run instead of per page.
     *
     * Unset (the default) is adaptive: a per-CacheFile tracker
     * (readahead.hh) ramps the window multiplicatively on confirmed
     * sequential (or small-stride) runs up to 32 pages (see
     * BufferCache::planReadAhead), collapses it to zero on random
     * access, and throttles files whose prefetched pages keep getting
     * evicted unused (with ghost-hit detection so a wrongly-throttled
     * window re-grows). N is the paper's static shape, a fixed window
     * of N pages on every miss; 0 turns read-ahead off (the
     * prototype's behavior). bench/ablate_readahead sweeps the static
     * windows against adaptive and fails if adaptive ever loses by
     * more than 5%.
     */
    std::optional<unsigned> readAheadPages;

    /**
     * Extension (off by default): the diff-and-merge protocol of §3.1
     * that the paper's prototype left unimplemented ("does not yet
     * implement the diff-and-merge protocol required to support
     * general write-sharing, and thus currently supports only one
     * writer at a time"). When enabled, write-opened pages keep a
     * pristine copy (a second frame); synchronization diffs working
     * vs pristine and propagates only locally-modified bytes, so
     * multiple writers to disjoint regions — even of the same page
     * (false sharing) — merge correctly, and the consistency layer
     * admits concurrent diff-merge writers.
     */
    bool enableDiffMerge = false;

    /**
     * Batched write-back (the ReadPages symmetry, on by default):
     * gfsync, dirty eviction and gftruncate coalesce up to
     * rpc::kMaxBatchPages dirty page extents into one WritePages RPC —
     * one request slot, one per-request CPU charge, one gathered
     * HostFs::pwritev, one D2H DMA reservation — instead of one
     * WriteBack round-trip per dirty page. Off reverts to the per-page
     * path (bench/ablate_writeback quantifies the gap).
     */
    bool batchWriteback = true;

    /**
     * Async write-back daemon (§3.3: dirty pages are "written back ...
     * asynchronously" so GPU threads never stall on host I/O; off by
     * default, matching the prototype's sync-on-gfsync behavior). A
     * host-side flusher thread owned by GpufsSystem periodically
     * drains dirty pages through BufferCache::flushDirty, so gfsync
     * usually finds few dirty pages — its latency stops growing with
     * the dirty count — and eviction rarely meets a dirty page. The
     * flusher also owns eager drained-cache collection: closed-file
     * caches whose pages eviction has fully reclaimed are destroyed
     * between passes instead of waiting for the next gopen slow path.
     */
    bool asyncWriteback = false;

    /** Wall-clock period between flusher drain passes, microseconds. */
    unsigned flusherIntervalUs = 200;

    /**
     * Multi-GPU cache sharding (see ShardPolicy). Applied by
     * GpufsSystem, which owns the machine-wide ShardMap; a GpuFs
     * constructed standalone (tests) stays private regardless.
     */
    ShardPolicy shardPolicy = ShardPolicy::Private;

    /** HashPageGroup granularity: pages per ownership group. Larger
     *  groups keep batched fetches whole; smaller groups spread a
     *  single hot file more evenly. */
    unsigned shardPagesPerGroup = 16;

    /**
     * Write-ahead journal in the daemon (crash consistency). When on,
     * write-backs of files opened G_GDURABLE append checksummed extent
     * records plus a commit record to the journal and fsync it BEFORE
     * the in-place write; daemon restart replays committed-but-
     * unapplied records and discards torn tails, so multi-page updates
     * are never torn and gmsync-acknowledged bytes always survive.
     * Off (the default) leaves every existing path byte-identical.
     */
    bool journalWriteback = false;

    /**
     * Storage backend the daemon routes every miss read and write-back
     * through (see storage::BackendKind). Buffered is the paper's
     * buffered-pread shape and stays byte-identical; the others model
     * O_DIRECT, GPUDirect zero-copy, and an NVMe-oF remote flash tier
     * (bench/ablate_backend maps the crossovers).
     */
    storage::BackendKind storageBackend = storage::BackendKind::Buffered;

    /**
     * Non-blocking I/O core: maximum async requests a single block may
     * have outstanding (gread_async/gwrite_async/gfsync_async tokens
     * not yet collected by gwait). Submissions beyond the cap fail
     * with Status::Busy — a block that double-buffers needs 2; the
     * default leaves generous headroom without letting a runaway block
     * monopolize the request-table slots or the RPC queue.
     */
    unsigned maxInflightIo = 64;

    /**
     * Host-RAM victim cache (second tier, off at 0): pinned host
     * memory, in pages of `pageSize`, that the machine's GpufsSystem
     * sizes and every GPU's arena demotes evicted pages into (one D2H
     * copy on the per-GPU host-staging timeline, off the critical
     * path). The daemon probes the tier before the storage backend on
     * every miss read, version-gated against the host file version, so
     * a re-miss of a demoted page costs one H2D DMA instead of a
     * storage read. Counters: vc_inserts / vc_hits / vc_misses /
     * vc_version_stale / vc_evictions in the daemon StatSet.
     */
    uint64_t victimCachePages = 0;

    /**
     * Multi-tenant serving tier (all zero = off, every path identical
     * to the single-tenant behavior). Quotas are enforced at claim /
     * demote time: a tenant at its frame quota evicts within its own
     * resident set (or gets NoSpace) instead of trampling other
     * tenants, and a tenant over its victim-tier quota displaces its
     * own demoted pages first. 0 = unlimited for that tenant.
     */
    uint32_t tenantFrameQuota[kMaxTenants] = {0, 0, 0, 0};

    /** Victim-tier quota per tenant, in pages (0 = unlimited). */
    uint64_t tenantVictimQuota[kMaxTenants] = {0, 0, 0, 0};

    /**
     * Weighted deficit-round-robin slot scheduling in the daemon's
     * service sweep (all zero = issue-time FIFO, the seed behavior).
     * A sweep holding requests of more than one tenant is served in
     * DRR order — batch requests cost their page count — so a scan
     * tenant's 16-page batches cannot starve a point-lookup tenant's
     * single-page reads queued in the same sweep.
     */
    unsigned tenantWeight[kMaxTenants] = {0, 0, 0, 0};
};

} // namespace core
} // namespace gpufs

#endif // GPUFS_GPUFS_PARAMS_HH
