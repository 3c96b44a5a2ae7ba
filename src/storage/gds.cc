/**
 * @file
 * GdsBackend: GPUDirect-style zero-copy storage access.
 *
 * Modeled on the gds-nvidia-fs pattern (SNIPPETS.md): the driver pins
 * GPU memory and the storage device DMAs into it directly, so there is
 * no host bounce buffer and no separate H2D hop — directToGpu() makes
 * the daemon skip its PCIe charge entirely. The transfer is a
 * STREAMING pipeline: the device read (O_DIRECT alignment and rates,
 * same media as DirectBackend) and the per-GPU storage-DMA engine run
 * concurrently from the submit point, and the access completes when
 * the slower of the two finishes — versus Direct's store-and-forward
 * (device read, THEN a full H2D pass over the same bytes). That one
 * eliminated pass is the whole win.
 */

#include "storage/backend.hh"

#include <algorithm>

namespace gpufs {
namespace storage {

namespace {

class GdsBackend : public StorageBackend
{
  public:
    GdsBackend(hostfs::HostFs &host_fs, StatSet &stats)
        : StorageBackend(host_fs, stats),
          dmas_(stats.counter("gds_dmas"))
    {
    }

    BackendKind kind() const override { return BackendKind::Gds; }
    bool directToGpu() const override { return true; }

    hostfs::IoResult
    readRuns(int fd, hostfs::ReadRun *runs, unsigned n, Time ready,
             unsigned gpu) override
    {
        auto r = fs.preadRunsUncached(fd, runs, n, ready);
        if (!ok(r.status) || r.bytes == 0)
            return r;
        countRead(r.bytes);
        r.done = chargeStreamed(
            alignedExtents(runs, n, &hostfs::ReadRun::bytes),
            r.bytes, ready, gpu, /*write=*/false);
        return r;
    }

    hostfs::IoResult
    writev(int fd, const hostfs::WriteRun *runs, unsigned n, Time ready,
           unsigned gpu) override
    {
        auto r = fs.pwritevUncached(fd, runs, n, ready);
        if (!ok(r.status) || r.bytes == 0)
            return r;
        countWrite(r.bytes);
        r.done = chargeStreamed(
            alignedExtents(runs, n, &hostfs::WriteRun::len),
            r.bytes, ready, gpu, /*write=*/true);
        return r;
    }

    hostfs::IoResult
    sync(int fd, Time ready, unsigned) override
    {
        countSync();
        auto r = fs.fsyncUncached(fd, ready);
        if (!ok(r.status))
            return r;
        auto &sim = fs.simContext();
        const auto &p = sim.params;
        if (!p.chargeHostIo)
            return r;
        Time t = sim.cpuIo.reserve(ready, p.preadOverhead).end;
        r.done = sim.disk.reserve(t, p.directAccessLat).end;
        return r;
    }

  private:
    /** Submit ioctl on cpuIo, then device and DMA engine CONCURRENTLY
     *  (the read streams through the engine as sectors arrive): done
     *  when the slower reservation ends. */
    Time
    chargeStreamed(AlignedExtents a, uint64_t bytes, Time ready,
                   unsigned gpu, bool write)
    {
        dmas_.inc();
        auto &sim = fs.simContext();
        const auto &p = sim.params;
        if (a.bytes == 0 || !p.chargeHostIo)
            return ready;
        Time t = sim.cpuIo.reserve(ready, p.preadOverhead).end;
        Time dev_dur = Time(a.extents) * p.directAccessLat
            + transferTime(a.bytes,
                           write ? p.directWriteMBps : p.directReadMBps);
        Time dev_end = sim.disk.reserve(t, dev_dur).end;
        Time dma_dur =
            p.gdsDmaSetup + transferTime(bytes, p.gdsDmaBwMBps);
        Time dma_end = sim.storageDma(gpu).reserve(t, dma_dur).end;
        return std::max(dev_end, dma_end);
    }

    Counter &dmas_;
};

} // namespace

std::unique_ptr<StorageBackend>
makeGdsBackend(hostfs::HostFs &fs, StatSet &stats)
{
    return std::make_unique<GdsBackend>(fs, stats);
}

} // namespace storage
} // namespace gpufs
