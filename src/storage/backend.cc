#include "storage/backend.hh"

#include <cstring>

#include "base/logging.hh"

namespace gpufs {
namespace storage {

const char *
backendName(BackendKind kind)
{
    switch (kind) {
      case BackendKind::Buffered:
        return "buffered";
      case BackendKind::Direct:
        return "direct";
      case BackendKind::Gds:
        return "gds";
      case BackendKind::RemoteFlash:
        return "remote";
    }
    return "?";
}

bool
parseBackendKind(const char *s, BackendKind *out)
{
    if (std::strcmp(s, "buffered") == 0)
        *out = BackendKind::Buffered;
    else if (std::strcmp(s, "direct") == 0)
        *out = BackendKind::Direct;
    else if (std::strcmp(s, "gds") == 0)
        *out = BackendKind::Gds;
    else if (std::strcmp(s, "remote") == 0 ||
             std::strcmp(s, "remoteflash") == 0)
        *out = BackendKind::RemoteFlash;
    else
        return false;
    return true;
}

StorageBackend::StorageBackend(hostfs::HostFs &host_fs, StatSet &stats)
    : fs(host_fs),
      reads_(stats.counter("storage_reads")),
      readBytes_(stats.counter("storage_read_bytes")),
      writes_(stats.counter("storage_writes")),
      writeBytes_(stats.counter("storage_write_bytes")),
      syncs_(stats.counter("storage_syncs"))
{
}

StorageBackend::~StorageBackend() = default;

void
StorageBackend::countRead(uint64_t bytes)
{
    reads_.inc();
    readBytes_.inc(bytes);
}

void
StorageBackend::countWrite(uint64_t bytes)
{
    writes_.inc();
    writeBytes_.inc(bytes);
}

void
StorageBackend::countSync()
{
    syncs_.inc();
}

namespace {

/**
 * The paper's only shape, unchanged: every call delegates to the
 * charged HostFs method on the daemon's serialized cpuIo path, so a
 * Buffered run is byte-identical to the pre-backend daemon (the
 * benchsmoke identity gate in bench/ablate_backend holds it to exact
 * virtual-span equality).
 */
class BufferedBackend : public StorageBackend
{
  public:
    using StorageBackend::StorageBackend;

    BackendKind kind() const override { return BackendKind::Buffered; }

    hostfs::IoResult
    readRuns(int fd, hostfs::ReadRun *runs, unsigned n, Time ready,
             unsigned) override
    {
        auto r = fs.preadRuns(fd, runs, n, ready, &fs.simContext().cpuIo);
        if (ok(r.status))
            countRead(r.bytes);
        return r;
    }

    hostfs::IoResult
    writev(int fd, const hostfs::WriteRun *runs, unsigned n, Time ready,
           unsigned) override
    {
        auto r = fs.pwritev(fd, runs, n, ready, &fs.simContext().cpuIo);
        if (ok(r.status))
            countWrite(r.bytes);
        return r;
    }

    hostfs::IoResult
    sync(int fd, Time ready, unsigned) override
    {
        countSync();
        return fs.fsync(fd, ready);
    }
};

} // namespace

std::unique_ptr<StorageBackend>
makeBufferedBackend(hostfs::HostFs &fs, StatSet &stats)
{
    return std::make_unique<BufferedBackend>(fs, stats);
}

std::unique_ptr<StorageBackend>
makeStorageBackend(BackendKind kind, hostfs::HostFs &fs, StatSet &stats)
{
    switch (kind) {
      case BackendKind::Buffered:
        return makeBufferedBackend(fs, stats);
      case BackendKind::Direct:
        return makeDirectBackend(fs, stats);
      case BackendKind::Gds:
        return makeGdsBackend(fs, stats);
      case BackendKind::RemoteFlash:
        return makeRemoteFlashBackend(fs, stats);
    }
    gpufs_assert(false, "unknown storage backend kind");
    return nullptr;
}

} // namespace storage
} // namespace gpufs
