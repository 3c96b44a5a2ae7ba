/**
 * @file
 * The CPU-side GPUfs daemon (§4.3).
 *
 * A single user-level thread in the host application services every
 * GPU's request queue: "a single-threaded, event-based design on the
 * host to restrict the GPU-related CPU load to one CPU, simplify
 * synchronization, and to avoid overwhelming the disk subsystem".
 * File accesses are therefore ordered (the cpuIo resource serializes
 * them in virtual time), while DMA runs on the per-GPU PCIe timelines
 * so disk reads of one request overlap the DMA of another — the
 * "multiple asynchronous CPU-GPU channels" of the paper.
 */

#ifndef GPUFS_RPC_DAEMON_HH
#define GPUFS_RPC_DAEMON_HH

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "base/stats.hh"
#include "consistency/consistency.hh"
#include "gpu/device.hh"
#include "gpufs/params.hh"
#include "hostfs/hostfs.hh"
#include "hostfs/journal.hh"
#include "rpc/peer.hh"
#include "rpc/queue.hh"
#include "storage/backend.hh"

namespace gpufs {
namespace core {
class VictimCache;
}
namespace rpc {

class CpuDaemon
{
  public:
    /**
     * @param host_fs  the host file system requests operate on
     * @param mgr      consistency layer notified on GPU opens/closes
     */
    CpuDaemon(hostfs::HostFs &host_fs, consistency::ConsistencyMgr &mgr);
    ~CpuDaemon();

    CpuDaemon(const CpuDaemon &) = delete;
    CpuDaemon &operator=(const CpuDaemon &) = delete;

    /**
     * Register a GPU and create its request queue. Must be called
     * before start(). @return the queue the GPU submits to.
     */
    RpcQueue &attachGpu(gpu::GpuDevice &dev);

    /** Start the daemon thread. Runs journal recovery first when the
     *  journal is enabled (replay committed txns, discard torn tail),
     *  so a stop()/start() cycle is a full crash-recovery restart. */
    void start();
    /** Stop and join the daemon thread. Idempotent. */
    void stop();

    /**
     * Create the write-ahead journal (GpuFsParams::journalWriteback).
     * Must be called before the first start(). Write-backs to fds
     * opened with O_GDURABLE_F then commit to the journal before the
     * in-place write, and their fsync barrier is answered from the
     * commit record.
     */
    void enableJournal();

    /** The journal, or nullptr when journaling is off (tests). */
    hostfs::WriteJournal *journal() { return journal_.get(); }

    /**
     * Select the storage backend every miss read and write-back routes
     * through (GpuFsParams::storageBackend; Buffered when never
     * called). Must be called before start().
     */
    void setStorageBackend(storage::BackendKind kind);

    /** The active storage backend (never null). */
    storage::StorageBackend &storageBackend() { return *backend_; }

    /**
     * Install (or clear, with nullptr) the machine-wide host-RAM
     * victim tier. Must be called before start(). servePages then
     * tries the tier before the storage backend for every page a read
     * request (or sweep group) still needs, gated on the host's
     * CURRENT file version from fstat — write-through mirrors and
     * journal replay bump the version, so stale bytes are dropped,
     * never served. A victim hit is a plain H2D DMA charge even under
     * a direct-to-GPU backend: the bytes sit in host RAM, not on the
     * device.
     */
    void setVictimCache(core::VictimCache *v);

    core::VictimCache *victimCache() { return victim_; }

    /**
     * Install (or clear, with nullptr) the peer-cache view of GPU
     * @p gpu_id used to service PeerReadPages / PeerWritePages.
     * Callable while the daemon runs — the owner publishes the source
     * after the GpuFs exists and clears it before teardown, and the
     * handler tolerates a null source by falling back to the host
     * path.
     */
    void setPeerSource(unsigned gpu_id, PeerPageSource *src);

    /**
     * Serving tier: weighted deficit-round-robin slot scheduling.
     * @p weights[t] is tenant t's share; any nonzero entry switches a
     * sweep with more than one tenant present from plain issue-time
     * order to DRR emission (cost = pages requested), so a scan
     * tenant's deep batches cannot starve point-lookup tenants —
     * their slots are serviced (and reserve the serialized cpuIo
     * timeline) ahead of the scan's backlog in proportion to weight.
     * Single-tenant sweeps keep the exact issue-time order. Must be
     * called before start().
     */
    void setTenantWeights(const unsigned *weights, unsigned n);

    StatSet &stats() { return stats_; }
    hostfs::HostFs &hostFs() { return fs; }
    consistency::ConsistencyMgr &consistencyMgr() { return consistency; }

  private:
    struct GpuPort {
        gpu::GpuDevice *dev;
        std::unique_ptr<RpcQueue> queue;
        /** Peer-cache view for sharded multi-GPU forwarding; null
         *  until the owning GpuFs registers (host fallback applies). */
        std::atomic<PeerPageSource *> peerSource{nullptr};
        /** Slot-pressure snapshot at the last stats report, so the
         *  >1%-stall check runs on the interval's DELTA rather than
         *  re-judging the whole cumulative history every pass. */
        uint64_t lastStalls = 0;
        uint64_t lastSubs = 0;
        /** Latched while the stall rate sits above threshold: warn on
         *  the crossing, not on every report that follows it. */
        bool stallWarned = false;
        /** Weighted DRR: per-tenant deficit counters. Reset when a
         *  tenant's backlog drains (classic DRR empty-queue rule), so
         *  idle tenants never bank unbounded credit. Daemon thread
         *  only. */
        uint64_t drrDeficit[core::kMaxTenants] = {};
    };

    hostfs::HostFs &fs;
    consistency::ConsistencyMgr &consistency;
    /** unique_ptr: GpuPort carries an atomic (non-movable) and handler
     *  threads hold references across attachGpu calls. */
    std::vector<std::unique_ptr<GpuPort>> ports;
    std::atomic<uint64_t> doorbell{0};
    std::atomic<bool> running{false};
    std::thread worker;

    StatSet stats_;
    Counter &requestsServed;
    Counter &bytesToGpu;
    Counter &bytesFromGpu;
    /** Bytes moved GPU-to-GPU over the P2P channels (peer forwards). */
    Counter &bytesPeer;
    Counter &peerReadRpcs;
    Counter &peerPagesForwarded;
    Counter &peerPagesHost;
    /** peerPagesHost split by why the owner did not serve the page
     *  (peer_fallback_busy, _no_entry, _stale, _cold, _unclean,
     *  _no_source), indexed by PeerCopy; the Served slot is null.
     *  The six sum to peer_pages_host_fallback. */
    Counter *peerFallback[kPeerCopyOutcomes] = {};
    Counter &peerWriteRpcs;
    Counter &peerExtentsMirrored;
    /** Pages served to read-ahead (speculative) batches, as opposed to
     *  demand fetches — the host-side view of prefetch traffic. */
    Counter &raPagesFetched;
    /** Cross-slot aggregation: ReadPages requests that rode a
     *  same-sweep same-file group instead of their own host read
     *  (k-grouped sweeps add k-1), and the storage reads servePages
     *  actually issued (at most one per call, peer fallbacks included)
     *  — aggregation shows as host_read_calls falling below the served
     *  request count. */
    Counter &coalescedRpcs;
    Counter &hostReadCalls;
    /** Transient host-I/O faults absorbed by bounded retry+backoff,
     *  and operations that exhausted the retry budget (the RPC then
     *  completes with an error IoResult — graceful degradation). */
    Counter &ioRetries;
    Counter &ioRetryGiveups;
    /** Journal activity: committed write-back txns, fsyncs answered
     *  from the commit record (gmsync barrier), and recovery work. */
    Counter &journalCommits;
    Counter &journalCommitBarriers;
    Counter &journalTxnsReplayed;
    Counter &journalTornRecords;
    /** Clean-shutdown journal truncations (stop() with every committed
     *  txn applied in place). */
    Counter &journalCheckpoints;
    /** Group commit: journal fsyncs actually issued (one per sweep
     *  with journaled write-backs), vs journal_commits = txns — the
     *  gap is the batching win. */
    Counter &journalGroupSyncs;
    /** Owner warming: pages a PeerReadPages host fallback adopted into
     *  the cold owner's cache (satellite of the sharded serving tier:
     *  the next peer miss on those pages forwards instead of paying
     *  another storage round trip). */
    Counter &peerPagesAdopted;
    /** Per-tenant RPCs serviced (serving-tier fairness reports). */
    Counter *tenantRpcs[core::kMaxTenants];

    /** Write-ahead journal (null unless enableJournal() was called). */
    std::unique_ptr<hostfs::WriteJournal> journal_;

    /** Committed-but-not-yet-applied journal txns: incremented at
     *  commit, decremented when the in-place write lands. stop() only
     *  checkpoints at zero — a pending txn is exactly what recovery's
     *  replay exists for, and truncating it would lose the bytes. */
    std::atomic<uint64_t> journalUnapplied_{0};

    /** Storage backend servePages / applyWrites route through
     *  (BufferedBackend until setStorageBackend, never null). */
    std::unique_ptr<storage::StorageBackend> backend_;

    /** Host-RAM victim tier (null = off); owned by GpufsSystem. */
    core::VictimCache *victim_ = nullptr;

    /** Serving tier: DRR weights (all-zero = scheduling off). */
    unsigned tenantWeight_[core::kMaxTenants] = {};
    bool drr_ = false;

    void loop();
    RpcResponse handle(unsigned port_idx, const RpcRequest &req);

    /**
     * Service one pollAll sweep of @p port_idx in issue-time order,
     * serving different slots' concurrent ReadPages on the same host
     * file with one servePages call (cross-block RPC aggregation);
     * everything else routes through handle(). Reorders @p batch in
     * place, completes every slot and counts requestsServed.
     */
    void serviceSweep(unsigned port_idx, RpcSlot **batch, unsigned n);

    /**
     * The one read-service path (ReadPage, ReadPages, PeerReadPages,
     * and a sweep's same-file ReadPages group as k > 1). The @p k
     * requests read one host file and share one CPU-overhead
     * reservation ending at @p t0. Every page is resolved from an
     * ordered source list — the owner GPU (PeerReadPages only), the
     * victim tier (version-gated), then storage — where all
     * storage-bound pages go out as ONE backend readRuns call and each
     * source gets one DMA charge. Fills resps[0..k); each completes
     * when the sources that served its pages have. @return the
     * storage read's status (Ok when none was needed); on failure
     * every well-formed request carries it.
     */
    Status servePages(gpu::GpuDevice &dev, const RpcRequest *const *reqs,
                      unsigned k, Time t0, RpcResponse *resps);

    /**
     * The one write-apply path (WritePages, PeerWritePages)
     * after the CPU-overhead reservation ending at @p t0: one D2H DMA,
     * then writeRunsOf -> maybeJournal -> ONE backend writev -> victim
     * invalidation, then — PeerWritePages only — the owner mirror
     * and version publish.
     */
    RpcResponse applyWrites(gpu::GpuDevice &dev, const RpcRequest &req,
                            Time t0);

    /** Which way a PCIe DMA crosses, and whether its host side is the
     *  storage path (skipped under a direct-to-GPU backend, whose own
     *  charge covers the wire) or the pinned victim tier (always
     *  crosses). */
    enum class PcieHop { StorageToGpu, VictimToGpu, GpuToStorage };

    /** Charge one DMA of @p bytes ready at @p ready on the hop's PCIe
     *  channel, and count the bytes (bytes_to_gpu / bytes_from_gpu). */
    Time chargePcie(gpu::GpuDevice &dev, PcieHop hop, uint64_t bytes,
                    Time ready);

    void handleOpen(gpu::GpuDevice &dev, const RpcRequest &req,
                    RpcResponse &resp);
    void handleClose(gpu::GpuDevice &dev, const RpcRequest &req,
                     RpcResponse &resp);

    // ---- sharded multi-GPU peer forwarding ----

    /** The owner GPU's cache view for @p req.peerGpu, or nullptr
     *  (host fallback) when out of range or not registered. */
    PeerPageSource *peerSourceOf(const RpcRequest &req);

    /** Charge one P2P DMA of @p bytes from GPU @p src to GPU @p dst on
     *  their pair channel, ready at @p ready. @return the transfer's
     *  interval (empty at @p ready when nothing is charged). */
    sim::Grant chargeP2pDma(gpu::GpuDevice &dev, unsigned src, unsigned dst,
                            uint64_t bytes, Time ready);

    /** Track (fd -> ino, write, durable) for consistency release and
     *  the journal's per-file gate. */
    struct FdClaim { uint64_t ino; bool write; bool durable; };
    std::mutex claimMtx;
    std::unordered_map<int, FdClaim> fdClaims;

    /** Run host I/O @p fn(backoff) with bounded retry of transient
     *  faults (counted in io_retries / io_retry_giveups). */
    template <typename Fn>
    hostfs::IoResult retryIo(Fn &&fn);

    /** True when @p fd was opened O_GDURABLE_F; its ino out-param
     *  feeds the journal. */
    bool durableFd(int fd, uint64_t *ino_out = nullptr);

    /**
     * Journal-first ordering for applyWrites: when the
     * journal is on and @p fd is durable, ensure the txn's records are
     * commit-durable and advance @p t to the commit-durable time
     * before the caller's in-place write. Normally the sweep preflight
     * (prejournalSweep) already appended and group-synced the txn and
     * this only consumes the record; otherwise it falls back to a
     * per-RPC append + fsync. No-op (Ok) when the journal is off or
     * @p fd is not durable.
     */
    Status maybeJournal(int fd, const hostfs::WriteRun *runs, unsigned n,
                        Time &t, sim::Resource *io, bool &journaled);

    /**
     * Group commit: issue the ONE journal fsync covering every txn
     * maybeJournal appended since the last sync. Called at the end of
     * each service sweep, and forced by a durable-fsync barrier before
     * it reads lastCommitDone (the barrier must cover same-sweep
     * appends). No-op when nothing is pending or the host crashed
     * (pending appends then belong to recovery).
     */
    Status flushJournalSync();

    /**
     * Group-commit preflight: before a sweep's handlers run, append
     * every write-op slot's journal txn (pwrites only), then ONE
     * groupSync makes them all durable — satisfying the WAL rule (a
     * crash reverts un-fsynced writes, so the commit record must be
     * durable before any handler's in-place write) at one fsync per
     * sweep instead of one per WritePages RPC. Successful appends are
     * recorded in prejournalDone_; the handler's maybeJournal consumes
     * the entry and skips its own append. Slots whose preflight append
     * failed fall back to maybeJournal's per-RPC append+sync.
     */
    void prejournalSweep(unsigned port_idx, RpcSlot **all,
                         unsigned total);

    /** Preflight-appended slots of the current sweep -> commit-durable
     *  time. Daemon thread only. */
    std::unordered_map<RpcSlot *, Time> prejournalDone_;
    /** Set by serviceSweep just before a handler whose slot was
     *  preflight-journaled; maybeJournal consumes and clears it. */
    bool slotPrejournaled_ = false;
    Time slotPrejournalTime_ = 0;

    /**
     * Weighted DRR emission order for a sweep with >1 tenant present:
     * reorders @p batch in place — per-tenant sublists stay issue-time
     * sorted, rounds add weight to each deficit and emit requests
     * while the deficit covers their page cost. No-op unless weights
     * were set.
     */
    void drrOrder(GpuPort &port, RpcSlot **batch, unsigned n);

    /** The in-place write a committed txn was covering has landed. */
    void
    journalApplied(bool journaled)
    {
        if (journaled)
            journalUnapplied_.fetch_sub(1, std::memory_order_relaxed);
    }
};

} // namespace rpc
} // namespace gpufs

#endif // GPUFS_RPC_DAEMON_HH
