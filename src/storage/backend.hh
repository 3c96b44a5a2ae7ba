/**
 * @file
 * StorageBackend: the seam between the daemon's miss/write-back path
 * and storage.
 *
 * The paper's host daemon knows exactly one miss shape — a buffered
 * pread through the OS page cache followed by a bounce-buffer H2D DMA
 * (§4.3). This interface makes that shape pluggable with three calls:
 * readRuns (every storage-bound page of one page-service call, as one
 * gathered read), writev (one write-back's runs, as one gathered
 * write) and sync. A single extent is simply a one-run call. Each
 * backend pairs the (shared) functional HostFs data movement with its
 * own virtual-time charge model:
 *
 *  - BufferedBackend    host page cache + disk (byte-identical default)
 *  - DirectBackend      O_DIRECT: aligned extents, device-rate I/O,
 *                       no cache in either direction
 *  - GdsBackend         GPUDirect-style zero-copy: the device read
 *                       streams through a per-GPU storage-DMA engine
 *                       straight into the frame arena (directToGpu():
 *                       the daemon skips its PCIe bounce hop)
 *  - RemoteFlashBackend NVMe-oF: flash-rate media behind fabric RTT,
 *                       link bandwidth, and a bounded queue depth
 *
 * Fault injection, crash points, EOF clamping and version bumps live
 * in HostFs (preadRuns/pwritev and their *Uncached twins), so every
 * backend degrades and recovers identically — tests/storage_test.cc
 * sweeps the matrix.
 */

#ifndef GPUFS_STORAGE_BACKEND_HH
#define GPUFS_STORAGE_BACKEND_HH

#include <memory>

#include "base/stats.hh"
#include "hostfs/hostfs.hh"
#include "storage/kind.hh"

namespace gpufs {
namespace storage {

/** Bytes the device must actually move for [offset, offset+len) under
 *  @p align-byte sector constraints (O_DIRECT rounds both ends out). */
inline uint64_t
alignedSpan(uint64_t offset, uint64_t len, uint64_t align)
{
    if (len == 0)
        return 0;
    if (align <= 1)
        return len;
    uint64_t lo = offset / align * align;
    uint64_t hi = (offset + len + align - 1) / align * align;
    return hi - lo;
}

/** Device bytes and seek count of a gathered I/O under sector
 *  alignment (see StorageBackend::alignedExtents). */
struct AlignedExtents {
    uint64_t bytes = 0;
    unsigned extents = 0;
};

class StorageBackend
{
  public:
    /** Registers the shared storage_* counters in @p stats (the
     *  daemon's StatSet; re-registration fetches the same counters). */
    StorageBackend(hostfs::HostFs &host_fs, StatSet &stats);
    virtual ~StorageBackend();

    StorageBackend(const StorageBackend &) = delete;
    StorageBackend &operator=(const StorageBackend &) = delete;

    virtual BackendKind kind() const = 0;
    const char *name() const { return backendName(kind()); }

    /**
     * True when reads land in GPU memory without a host bounce buffer
     * (and write-backs leave it without one): the daemon must skip its
     * H2D/D2H PCIe charge — the backend's own timeline carries the
     * transfer.
     */
    virtual bool directToGpu() const { return false; }

    /** @p gpu is the requesting GPU's id — backends with per-GPU
     *  timelines (GDS) reserve that GPU's engine; others ignore it.
     *  readRuns/writev mirror HostFs::preadRuns/pwritev. */
    virtual hostfs::IoResult readRuns(int fd, hostfs::ReadRun *runs,
                                      unsigned n, Time ready,
                                      unsigned gpu) = 0;
    virtual hostfs::IoResult writev(int fd, const hostfs::WriteRun *runs,
                                    unsigned n, Time ready,
                                    unsigned gpu) = 0;
    virtual hostfs::IoResult sync(int fd, Time ready, unsigned gpu) = 0;

  protected:
    hostfs::HostFs &fs;

    /** Count one read/write call of @p bytes on the shared counters. */
    void countRead(uint64_t bytes);
    void countWrite(uint64_t bytes);
    void countSync();

    /** Sector-aligned device bytes (directAlignBytes) and extent count
     *  over the non-empty runs; @p len names the run's byte count. */
    template <typename Run>
    AlignedExtents
    alignedExtents(const Run *runs, unsigned n, uint64_t Run::*len) const
    {
        const uint64_t align = fs.simContext().params.directAlignBytes;
        AlignedExtents a;
        for (unsigned i = 0; i < n; ++i) {
            if (runs[i].*len == 0)
                continue;
            a.bytes += alignedSpan(runs[i].offset, runs[i].*len, align);
            ++a.extents;
        }
        return a;
    }

  private:
    Counter &reads_;
    Counter &readBytes_;
    Counter &writes_;
    Counter &writeBytes_;
    Counter &syncs_;
};

/** Construct the backend for @p kind, counters registered in @p stats. */
std::unique_ptr<StorageBackend> makeStorageBackend(BackendKind kind,
                                                   hostfs::HostFs &fs,
                                                   StatSet &stats);

// Per-kind factories (backend.cc dispatches; also used directly by
// unit tests that want a bare backend without a daemon).
std::unique_ptr<StorageBackend> makeBufferedBackend(hostfs::HostFs &fs,
                                                    StatSet &stats);
std::unique_ptr<StorageBackend> makeDirectBackend(hostfs::HostFs &fs,
                                                  StatSet &stats);
std::unique_ptr<StorageBackend> makeGdsBackend(hostfs::HostFs &fs,
                                               StatSet &stats);
std::unique_ptr<StorageBackend> makeRemoteFlashBackend(hostfs::HostFs &fs,
                                                       StatSet &stats);

} // namespace storage
} // namespace gpufs

#endif // GPUFS_STORAGE_BACKEND_HH
