/**
 * @file
 * Cost-model parameters calibrated to the paper's evaluation testbed
 * (§5): a SuperMicro server with two 4-core Xeon L5630 CPUs and four
 * NVIDIA TESLA C2075 GPUs on PCIe 2.0, a 7200 RPM WDC WD5003 disk, and
 * `hdparm -t -T` reporting 6,600 MB/s cached and 132 MB/s disk reads.
 *
 * Calibration notes (see EXPERIMENTS.md for the full derivation):
 *  - pcieBwMBps = 5731: the "maximum PCI bandwidth" line of Figure 4.
 *  - hostCacheReadMBps = 3300: effective pread()-to-pinned-buffer
 *    bandwidth. Chosen so that the serial whole-file baseline
 *    (pread then one big DMA) reproduces Figure 4's 2,100 MB/s:
 *    1 / (1/3300 + 1/5731) = 2,094 MB/s. The gap from hdparm's raw
 *    6,600 MB/s is the extra copy into the pinned staging buffer.
 *  - pageMapOverhead = 190 us: GPU-side buffer-cache cost per page map.
 *    Figure 5's right-hand column (total time with CPU file I/O and DMA
 *    excluded) is ~190 us × maps-per-block across the whole sweep
 *    (e.g. 512 maps × 190 us = 97 ms at 128 KB, paper reports 97.2 ms).
 *  - mpCount = 14: the C2075 has 14 multiprocessors; the paper launches
 *    28 threadblocks as "twice the number of active multiprocessors",
 *    hence blocksPerMp = 2.
 */

#ifndef GPUFS_SIM_HW_PARAMS_HH
#define GPUFS_SIM_HW_PARAMS_HH

#include <cstdint>

#include "base/units.hh"

namespace gpufs {
namespace sim {

struct HwParams {
    // ---- Peripheral interconnect (per GPU, full duplex) ----
    /** Effective PCIe 2.0 x16 bandwidth, host-to-device (MB/s). */
    double pcieBwH2DMBps = 5731.0;
    /** Effective PCIe bandwidth, device-to-host (MB/s). */
    double pcieBwD2HMBps = 5731.0;
    /** Fixed setup cost of one DMA transaction. */
    Time dmaSetup = 8 * kMicrosecond;

    // ---- Peer-to-peer DMA (GPU <-> GPU over PCIe) ----
    /**
     * Effective GPU-to-GPU PCIe P2P bandwidth (MB/s). Fermi-era
     * peer-to-peer copies between devices under one PCIe 2.0 switch
     * measure ~6 GB/s — slightly above the host-path effective rate
     * because the transfer is a single hop that skips the host staging
     * copy. Each ordered GPU pair gets its own timeline
     * (SimContext::p2p), so peer fetches of different pairs overlap
     * instead of serializing on the daemon's cpuIo path — the whole
     * point of servicing a shared working set from peer caches.
     */
    double pcieP2PBwMBps = 6000.0;
    /** Fixed setup cost of one P2P DMA transaction. */
    Time p2pDmaSetup = 8 * kMicrosecond;

    // ---- Host memory / file I/O ----
    /** Effective pread() bandwidth from a warm host page cache (MB/s). */
    double hostCacheReadMBps = 3300.0;
    /** Effective write bandwidth into the host page cache (MB/s). */
    double hostCacheWriteMBps = 3300.0;
    /** Per-syscall overhead of pread/pwrite on the host. */
    Time preadOverhead = 5 * kMicrosecond;
    /** Host page cache capacity (the paper's box "barely fits" 11 GB). */
    uint64_t hostCacheBytes = 9 * GiB;
    /** Granularity at which host page-cache residency is tracked. */
    uint64_t hostCacheGranule = 64 * KiB;

    // ---- Disk (WDC WD5003, 7200 RPM) ----
    /** Sequential disk read bandwidth (hdparm -t). */
    double diskReadMBps = 132.0;
    /** Disk write bandwidth. */
    double diskWriteMBps = 110.0;
    /** Per-request disk access latency (seek+rotate amortized). */
    Time diskAccessLat = 100 * kMicrosecond;

    // ---- O_DIRECT storage path (storage::DirectBackend) ----
    /** Sector alignment O_DIRECT imposes: transfers round both ends of
     *  an extent out to this boundary, so small unaligned reads move
     *  more bytes than requested (the cost the host page cache's
     *  read-modify-write normally hides). */
    uint64_t directAlignBytes = 4 * KiB;
    /** Device bandwidth seen by O_DIRECT reads/writes. Defaults match
     *  the buffered path's spindle (same WDC disk, no cache in front),
     *  so backend crossovers isolate the *path*, not the device. */
    double directReadMBps = 132.0;
    double directWriteMBps = 110.0;
    /** Per-request device access latency on the direct path. */
    Time directAccessLat = 100 * kMicrosecond;

    // ---- GPUDirect-style storage DMA (storage::GdsBackend) ----
    /** Setup cost of one storage->GPU DMA (driver ioctl + doorbell). */
    Time gdsDmaSetup = 10 * kMicrosecond;
    /** Storage-DMA engine bandwidth into GPU memory (one PCIe hop;
     *  the device read streams through it, no host bounce buffer). */
    double gdsDmaBwMBps = 5731.0;
    /** GPUDirect registration constraint: storage DMAs target BAR
     *  windows mapped at this granularity, so every frame's byte
     *  offset in the raw data array must sit on this boundary.
     *  BufferCache counts violations in `gds_unaligned_frames`. */
    uint64_t gdsAlignBytes = 4 * KiB;

    // ---- NVMe-oF remote flash tier (storage::RemoteFlashBackend) ----
    /** Network round-trip time initiator <-> target. */
    Time nvmfRtt = 30 * kMicrosecond;
    /** Fabric link bandwidth (~25 GbE effective). */
    double nvmfLinkMBps = 2900.0;
    /** Submission-queue depth: commands outstanding on the fabric at
     *  once; excess commands wait for a free slot. */
    unsigned nvmfQueueDepth = 32;
    /** Remote all-flash array: per-command access latency + media
     *  bandwidth (GNStor-style disaggregated tier — much faster media
     *  than the local spindle, but every byte pays the fabric). */
    Time remoteFlashAccessLat = 90 * kMicrosecond;
    double remoteFlashReadMBps = 2200.0;
    double remoteFlashWriteMBps = 1400.0;

    /**
     * Memory-pressure penalty on disk reads: pinned (unevictable)
     * memory forces the OS into direct reclaim on every page brought
     * in, multiplying effective disk read time by
     * (1 + penalty * pinned_fraction). Calibrated so the Figure 8
     * "CUDA naive" configuration (pinned buffers ~60% of memory) goes
     * ~4x slower than GPUfs in the disk-bound regime, as §5.1.4
     * reports ("the pinned memory allocated for large transfer
     * buffers ... competes with the CPU buffer cache, slowing it down
     * significantly").
     */
    double pinnedReclaimPenalty = 5.0;

    // ---- GPU ----
    /** Multiprocessors per GPU (TESLA C2075). */
    unsigned mpCount = 14;
    /** Resident threadblocks per multiprocessor. */
    unsigned blocksPerMp = 2;
    /** GPU local memory bandwidth (GDDR5, MB/s). */
    double gpuMemBwMBps = 144000.0;
    /** Fixed kernel launch latency. */
    Time kernelLaunchLat = 10 * kMicrosecond;

    // ---- GPUfs software costs (GPU side) ----
    /** Buffer-cache cost per page map/fetch on the calling block. */
    Time pageMapOverhead = 190 * kMicrosecond;
    /** Cost of a buffer-cache hit lookup (no RPC): the lock-free
     *  traversal plus pin/unpin, a few hundred ns of atomics. */
    Time cacheHitOverhead = 300;   // ns

    // ---- RPC (GPU -> CPU daemon) ----
    /** Queue submit + daemon poll detection latency. */
    Time rpcSubmitLat = 3 * kMicrosecond;
    /** CPU daemon per-request handling overhead. */
    Time rpcCpuOverhead = 5 * kMicrosecond;

    // ---- Figure 5 toggles: exclude components from the charge model ----
    /** When false, DMA transfers are charged zero time. */
    bool chargeDma = true;
    /** When false, host file I/O (page cache + disk) is charged zero. */
    bool chargeHostIo = true;

    /** Resident blocks per GPU ("wave" width). */
    unsigned waveSlots() const { return mpCount * blocksPerMp; }
};

} // namespace sim
} // namespace gpufs

#endif // GPUFS_SIM_HW_PARAMS_HH
