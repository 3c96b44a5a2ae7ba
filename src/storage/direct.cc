/**
 * @file
 * DirectBackend: O_DIRECT semantics on the local device.
 *
 * No host page cache in either direction — every access goes to the
 * device at directReadMBps/directWriteMBps after directAccessLat,
 * rounding each extent out to directAlignBytes sectors (the aligned-
 * I/O constraint: a 16 KB read at an odd offset moves full sectors,
 * and the bytes the cache's 64 KB granules would have over-read on
 * the buffered path are NOT fetched — which is exactly why O_DIRECT
 * wins cold random workloads). The submitting syscall still serializes
 * on the daemon's single cpuIo path, but only for its fixed overhead:
 * the data never makes a second pass through a host copy.
 */

#include "storage/backend.hh"

namespace gpufs {
namespace storage {

namespace {

class DirectBackend : public StorageBackend
{
  public:
    DirectBackend(hostfs::HostFs &host_fs, StatSet &stats)
        : StorageBackend(host_fs, stats),
          unalignedBytes_(stats.counter("direct_unaligned_bytes"))
    {
    }

    BackendKind kind() const override { return BackendKind::Direct; }

    hostfs::IoResult
    readRuns(int fd, hostfs::ReadRun *runs, unsigned n, Time ready,
             unsigned) override
    {
        auto r = fs.preadRunsUncached(fd, runs, n, ready);
        if (!ok(r.status) || r.bytes == 0)
            return r;
        countRead(r.bytes);
        // One gathered submission, one device reservation covering
        // every run: each extent seeks (accessLat) then streams its
        // aligned bytes.
        r.done = chargeAligned(
            alignedExtents(runs, n, &hostfs::ReadRun::bytes),
            r.bytes, ready, /*write=*/false);
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
        r.done = chargeAligned(
            alignedExtents(runs, n, &hostfs::WriteRun::len),
            r.bytes, ready, /*write=*/true);
        return r;
    }

    hostfs::IoResult
    sync(int fd, Time ready, unsigned) override
    {
        countSync();
        auto r = fs.fsyncUncached(fd, ready);
        if (!ok(r.status))
            return r;
        // Device flush barrier: nothing is cached host-side, so the
        // cost is one command's access latency.
        auto &sim = fs.simContext();
        const auto &p = sim.params;
        if (!p.chargeHostIo)
            return r;
        Time t = sim.cpuIo.reserve(ready, p.preadOverhead).end;
        r.done = sim.disk.reserve(t, p.directAccessLat).end;
        return r;
    }

  private:
    /** Submit syscall on cpuIo, then one device reservation:
     *  extents * accessLat + aligned bytes at device rate. */
    Time
    chargeAligned(AlignedExtents a, uint64_t bytes, Time ready, bool write)
    {
        if (a.bytes > bytes)
            unalignedBytes_.inc(a.bytes - bytes);
        auto &sim = fs.simContext();
        const auto &p = sim.params;
        if (a.bytes == 0 || !p.chargeHostIo)
            return ready;
        Time t = sim.cpuIo.reserve(ready, p.preadOverhead).end;
        Time dur = Time(a.extents) * p.directAccessLat
            + transferTime(a.bytes,
                           write ? p.directWriteMBps : p.directReadMBps);
        return sim.disk.reserve(t, dur).end;
    }

    /** Sector-rounding overhead: device bytes moved beyond the bytes
     *  requested (0 on aligned workloads). */
    Counter &unalignedBytes_;
};

} // namespace

std::unique_ptr<StorageBackend>
makeDirectBackend(hostfs::HostFs &fs, StatSet &stats)
{
    return std::make_unique<DirectBackend>(fs, stats);
}

} // namespace storage
} // namespace gpufs
