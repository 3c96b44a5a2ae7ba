/**
 * @file
 * RemoteFlashBackend: an NVMe-oF remote flash tier (GNStor-style
 * disaggregated storage).
 *
 * Every extent is one NVMe command: the initiator submits it (cpuIo
 * syscall overhead), waits for one of nvmfQueueDepth fabric slots,
 * pays half an RTT to reach the target, the flash media serves the
 * aligned extent (remoteFlashAccessLat + media bandwidth), the
 * data/ack serializes over the fabric link (nvmfLinkMBps), and the
 * completion pays the return half-RTT. Reads land in a host staging
 * buffer, so the normal H2D DMA still applies (directToGpu() false).
 * The tier wins cold working sets — flash media vs the local spindle —
 * and loses small warm accesses, where RTT dwarfs the buffered cache
 * hit; bench/ablate_backend sweeps the RTT crossover.
 */

#include "storage/backend.hh"

#include <algorithm>

namespace gpufs {
namespace storage {

namespace {

class RemoteFlashBackend : public StorageBackend
{
  public:
    RemoteFlashBackend(hostfs::HostFs &host_fs, StatSet &stats)
        : StorageBackend(host_fs, stats),
          commands_(stats.counter("nvmf_commands"))
    {
    }

    BackendKind kind() const override { return BackendKind::RemoteFlash; }

    hostfs::IoResult
    readRuns(int fd, hostfs::ReadRun *runs, unsigned n, Time ready,
             unsigned) override
    {
        auto r = fs.preadRunsUncached(fd, runs, n, ready);
        if (!ok(r.status) || r.bytes == 0)
            return r;
        countRead(r.bytes);
        // One submission batch, one command per extent: all commands
        // enter the fabric together (bounded by the queue depth) and
        // the gathered read completes with the last of them.
        Time t = submit(ready);
        Time done = t;
        for (unsigned i = 0; i < n; ++i) {
            if (runs[i].bytes == 0)
                continue;
            done = std::max(done, command(runs[i].offset, runs[i].bytes, t,
                                          /*write=*/false));
        }
        r.done = done;
        return r;
    }

    hostfs::IoResult
    writev(int fd, const hostfs::WriteRun *runs, unsigned n, Time ready,
           unsigned) override
    {
        auto r = fs.pwritevUncached(fd, runs, n, ready);
        if (!ok(r.status) || r.bytes == 0)
            return r;
        countWrite(r.bytes);
        Time t = submit(ready);
        Time done = t;
        for (unsigned i = 0; i < n; ++i) {
            if (runs[i].len == 0)
                continue;
            done = std::max(done, command(runs[i].offset, runs[i].len, t,
                                          /*write=*/true));
        }
        r.done = done;
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
        // NVMe flush: a zero-data command — full RTT plus one media
        // access on the target.
        Time t = submit(ready);
        auto slot = sim.nvmfSlots().acquire(t);
        Time at = slot.start + p.nvmfRtt / 2;
        at = sim.remoteFlash.reserve(at, p.remoteFlashAccessLat).end;
        at += p.nvmfRtt / 2;
        sim.nvmfSlots().release(slot, at);
        r.done = at;
        return r;
    }

  private:
    /** Initiator-side submission syscall (skipped when host I/O is
     *  uncharged, mirroring the buffered path's toggle). */
    Time
    submit(Time ready)
    {
        auto &sim = fs.simContext();
        const auto &p = sim.params;
        if (!p.chargeHostIo)
            return ready;
        return sim.cpuIo.reserve(ready, p.preadOverhead).end;
    }

    /**
     * One NVMe command for [offset, offset+bytes): queue-depth slot,
     * half-RTT out, media access of the aligned extent, data over the
     * fabric link, half-RTT back.
     */
    Time
    command(uint64_t offset, uint64_t bytes, Time ready, bool write)
    {
        commands_.inc();
        auto &sim = fs.simContext();
        const auto &p = sim.params;
        if (!p.chargeHostIo)
            return ready;
        uint64_t aligned = alignedSpan(offset, bytes, p.directAlignBytes);
        auto slot = sim.nvmfSlots().acquire(ready);
        Time t = slot.start + p.nvmfRtt / 2;
        Time media = p.remoteFlashAccessLat
            + transferTime(aligned, write ? p.remoteFlashWriteMBps
                                          : p.remoteFlashReadMBps);
        t = sim.remoteFlash.reserve(t, media).end;
        t = sim.nvmfLink.reserve(t, transferTime(bytes, p.nvmfLinkMBps)).end;
        t += p.nvmfRtt / 2;
        sim.nvmfSlots().release(slot, t);
        return t;
    }

    Counter &commands_;
};

} // namespace

std::unique_ptr<StorageBackend>
makeRemoteFlashBackend(hostfs::HostFs &fs, StatSet &stats)
{
    return std::make_unique<RemoteFlashBackend>(fs, stats);
}

} // namespace storage
} // namespace gpufs
