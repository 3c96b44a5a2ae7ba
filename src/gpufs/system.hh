/**
 * @file
 * GpufsSystem: one-call wiring of a whole simulated machine.
 *
 * Owns the pieces in dependency order — cost model, host FS,
 * consistency layer, CPU daemon, N GPU devices with their RPC queues
 * and GpuFs library instances — and manages daemon lifetime. This is
 * the entry point examples and benchmarks use; tests that need odd
 * topologies wire components manually.
 */

#ifndef GPUFS_GPUFS_SYSTEM_HH
#define GPUFS_GPUFS_SYSTEM_HH

#include <memory>
#include <vector>

#include "consistency/consistency.hh"
#include "consistency/wrapfs.hh"
#include "gpu/device.hh"
#include "gpufs/gpufs.hh"
#include "gpufs/shard.hh"
#include "gpufs/victim.hh"
#include "hostfs/hostfs.hh"
#include "rpc/daemon.hh"

namespace gpufs {
namespace core {

class GpufsSystem
{
  public:
    /**
     * @param num_gpus  number of GPU devices (the paper's box has 4)
     * @param fs_params GpuFs configuration applied to every GPU
     * @param hw        cost-model parameters
     */
    explicit GpufsSystem(unsigned num_gpus = 1,
                         const GpuFsParams &fs_params = GpuFsParams{},
                         const sim::HwParams &hw = sim::HwParams{})
        : sim_(hw), hostFs_(sim_), wrapFs_(hostFs_, consistency_),
          daemon_(hostFs_, consistency_),
          shardMap_(fs_params.shardPolicy, num_gpus,
                    fs_params.shardPagesPerGroup)
    {
        for (unsigned i = 0; i < num_gpus; ++i)
            devices_.push_back(std::make_unique<gpu::GpuDevice>(sim_, i));
        for (auto &dev : devices_)
            queues_.push_back(&daemon_.attachGpu(*dev));
        if (fs_params.journalWriteback)
            daemon_.enableJournal();
        daemon_.setStorageBackend(fs_params.storageBackend);
        // Host-RAM victim tier (one per machine, all GPUs demote into
        // it and the daemon probes it). Wired before start(): the
        // daemon forbids installation while running.
        if (fs_params.victimCachePages > 0) {
            victim_ = std::make_unique<VictimCache>(
                fs_params.victimCachePages, fs_params.pageSize,
                daemon_.stats());
            for (unsigned t = 0; t < kMaxTenants; ++t) {
                if (fs_params.tenantVictimQuota[t] != 0) {
                    victim_->setTenantQuota(
                        static_cast<TenantId>(t),
                        fs_params.tenantVictimQuota[t]);
                }
            }
            daemon_.setVictimCache(victim_.get());
        }
        // Serving tier: any nonzero weight switches the daemon's sweep
        // to weighted DRR emission (all-zero keeps issue-time FIFO).
        bool weighted = false;
        for (unsigned t = 0; t < kMaxTenants; ++t)
            weighted = weighted || fs_params.tenantWeight[t] != 0;
        if (weighted)
            daemon_.setTenantWeights(fs_params.tenantWeight, kMaxTenants);
        daemon_.start();
        for (unsigned i = 0; i < num_gpus; ++i) {
            gpufs_.push_back(std::make_unique<GpuFs>(*devices_[i],
                                                     *queues_[i],
                                                     fs_params));
            if (victim_)
                gpufs_.back()->bufferCache().setVictimCache(victim_.get());
        }
        // Sharded multi-GPU topology: every GpuFs consults the shared
        // shard map on a miss, and the daemon reaches each GPU's cache
        // through its peer source to service PeerReadPages /
        // PeerWritePages. Private policy (or one GPU) wires the same
        // way but the map never names a non-self owner.
        for (unsigned i = 0; i < num_gpus; ++i) {
            gpufs_[i]->setShardMap(&shardMap_);
            daemon_.setPeerSource(i, gpufs_[i].get());
        }
    }

    ~GpufsSystem()
    {
        // Quiesce the WHOLE topology before destroying any instance:
        // one GPU's uncollected split-phase RPC may target another
        // GPU's frames (peer forwarding), so per-instance teardown
        // alone would let the daemon DMA into freed memory.
        for (auto &fs : gpufs_)
            fs->quiesce();
        for (unsigned i = 0; i < gpufs_.size(); ++i)
            daemon_.setPeerSource(i, nullptr);
        gpufs_.clear();     // GpuFs teardown precedes daemon shutdown
        daemon_.stop();
    }

    GpufsSystem(const GpufsSystem &) = delete;
    GpufsSystem &operator=(const GpufsSystem &) = delete;

    sim::SimContext &sim() { return sim_; }
    hostfs::HostFs &hostFs() { return hostFs_; }
    consistency::WrapFs &wrapFs() { return wrapFs_; }
    consistency::ConsistencyMgr &consistencyMgr() { return consistency_; }
    rpc::CpuDaemon &daemon() { return daemon_; }
    /** The host-RAM victim tier, or null when victimCachePages == 0. */
    VictimCache *victimCache() { return victim_.get(); }

    unsigned numGpus() const { return static_cast<unsigned>(devices_.size()); }
    gpu::GpuDevice &device(unsigned i) { return *devices_.at(i); }
    GpuFs &fs(unsigned i = 0) { return *gpufs_.at(i); }
    rpc::RpcQueue &rpcQueue(unsigned i = 0) { return *queues_.at(i); }
    const ShardMap &shardMap() const { return shardMap_; }

    /**
     * Serving tier: migrate every page group whose accumulated read
     * heat reaches @p min_heat toward its heaviest reader (heat-based
     * shard rebalancing; see ShardMap::rebalance). Call from quiesced
     * control code between workload phases. @return groups migrated.
     */
    unsigned
    rebalanceShards(uint32_t min_heat = 64)
    {
        return shardMap_.rebalance(min_heat);
    }

    /**
     * Crash-recovery restart: stop the daemon thread (as a crash or
     * power loss would), clear the fault plan's crashed latch, and
     * start a fresh daemon — which replays the write-ahead journal
     * before accepting RPCs (CpuDaemon::start). The host FS contents
     * at this point are exactly what the crash left durable; GPU-side
     * caches are NOT touched (tests reopen files, which revalidates
     * against the host version numbers).
     */
    void
    restartDaemon()
    {
        daemon_.stop();
        sim_.faults.reboot();
        daemon_.start();
    }

    /** Reset all virtual-time state (between benchmark phases). */
    void
    resetTime()
    {
        sim_.reset();
        for (auto &dev : devices_)
            dev->resetTime();
    }

  private:
    sim::SimContext sim_;
    hostfs::HostFs hostFs_;
    consistency::ConsistencyMgr consistency_;
    consistency::WrapFs wrapFs_;
    rpc::CpuDaemon daemon_;
    /** Host-RAM victim tier; null when off. Declared after daemon_ so
     *  it outlives nothing that probes it: the dtor body stops the
     *  daemon thread before members destruct. */
    std::unique_ptr<VictimCache> victim_;
    /** Machine-wide page -> owner-GPU map (sharded multi-GPU cache). */
    ShardMap shardMap_;
    std::vector<std::unique_ptr<gpu::GpuDevice>> devices_;
    std::vector<rpc::RpcQueue *> queues_;
    std::vector<std::unique_ptr<GpuFs>> gpufs_;
};

} // namespace core
} // namespace gpufs

#endif // GPUFS_GPUFS_SYSTEM_HH
