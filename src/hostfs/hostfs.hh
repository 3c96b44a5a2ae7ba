/**
 * @file
 * The simulated host file system.
 *
 * Provides the POSIX-shaped surface the GPUfs host daemon and the CPU
 * baseline workloads call: open/pread/pwrite/fsync/ftruncate/unlink/
 * stat. The namespace maps paths to inodes; each inode owns a
 * ContentProvider (the "disk image") and a version number used by the
 * consistency layer (§4.4) to detect stale GPU caches. Timing flows
 * through HostPageCache.
 */

#ifndef GPUFS_HOSTFS_HOSTFS_HH
#define GPUFS_HOSTFS_HOSTFS_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/status.hh"
#include "base/units.hh"
#include "hostfs/content.hh"
#include "hostfs/page_cache.hh"
#include "sim/context.hh"

namespace gpufs {
namespace hostfs {

/** Open flags (subset of POSIX plus the host-visible view of GPUfs). */
enum OpenFlags : uint32_t {
    O_RDONLY_F = 0x0,
    O_WRONLY_F = 0x1,
    O_RDWR_F   = 0x2,
    O_CREAT_F  = 0x40,
    O_TRUNC_F  = 0x200,
    O_ACCMODE_F = 0x3,
    /** GPUfs durability flag: write-backs to this file go through the
     *  daemon's write-ahead journal (when enabled), and fsync/gmsync
     *  completion is tied to the journal commit record. Per-file, per
     *  the cuda-durable-allocator design, rather than a global mode. */
    O_GDURABLE_F = 0x10000,
};

/** Result of stat(). */
struct FileInfo {
    uint64_t ino;
    uint64_t size;
    uint64_t version;   ///< bumped on every mutation; consistency token
};

/** Result of a timed I/O call. */
struct IoResult {
    Status status;
    uint64_t bytes;
    Time done;          ///< virtual completion time
    /** Post-write inode version (write paths only; 0 otherwise). Lets
     *  the daemon report the version its own write produced without a
     *  second fstat round through the namespace lock. */
    uint64_t version = 0;
};

/** One run of a gathered write (pwritev). */
struct WriteRun {
    uint64_t offset;
    uint64_t len;
    const uint8_t *data;
};

/** One run of a gathered scatter-read (preadRuns): a contiguous file
 *  extent at @p offset landing in @p nPages page buffers, one
 *  originating RPC slot's worth. @p bytes returns the EOF-clamped
 *  byte count actually read for that run. */
struct ReadRun {
    uint64_t offset;
    uint8_t *const *dsts;
    unsigned nPages;
    uint64_t pageLen;
    uint64_t bytes = 0;
};

/**
 * The host file system. All methods are thread safe. Methods that move
 * data take the caller's virtual ready time and return a completion
 * time; @p io_path, when non-null, is the serialized CPU resource the
 * copy runs on (the GPUfs daemon passes SimContext::cpuIo; CPU baseline
 * threads pass nullptr and pay the cost inline).
 */
class HostFs
{
  public:
    explicit HostFs(sim::SimContext &sim_ctx);
    ~HostFs();

    HostFs(const HostFs &) = delete;
    HostFs &operator=(const HostFs &) = delete;

    /** Create a file backed by an explicit provider (workload setup). */
    Status addFile(const std::string &path,
                   std::unique_ptr<ContentProvider> content, uint64_t size);

    /** Open; returns fd >= 0 or negative on error (status out-param). */
    int open(const std::string &path, uint32_t flags, Status *st = nullptr);
    Status close(int fd);

    /** One contiguous read: preadRuns with a single run. */
    IoResult pread(int fd, uint8_t *dst, uint64_t len, uint64_t offset,
                   Time ready = 0, sim::Resource *io_path = nullptr);
    /** One contiguous write without crash points or short-write
     *  injection (the journal's append path; the daemon's write-backs
     *  use pwritev). */
    IoResult pwrite(int fd, const uint8_t *src, uint64_t len, uint64_t offset,
                    Time ready = 0, sim::Resource *io_path = nullptr);

    /**
     * Gathered scatter-read: every run's extent lands in its page
     * buffers, charged as ONE preadv syscall over all runs (per-run
     * miss/disk accounting, one copy overhead) — the daemon's one
     * storage read per page-service call. Per-run byte counts (EOF
     * clamped; runs entirely past EOF read 0 bytes) return in
     * runs[i].bytes; IoResult.bytes is their sum.
     */
    IoResult preadRuns(int fd, ReadRun *runs, unsigned n, Time ready = 0,
                       sim::Resource *io_path = nullptr);

    /**
     * Gathered write: all runs land atomically as ONE pwritev — a
     * single syscall charge and a single version bump, which is how
     * the daemon writes back multi-run (zero-diff) page extents.
     */
    IoResult pwritev(int fd, const WriteRun *runs, unsigned n,
                     Time ready = 0, sim::Resource *io_path = nullptr);

    /** fsync: flush dirty page-cache granules to disk. */
    IoResult fsync(int fd, Time ready = 0);

    // ---- uncached variants (storage backends) ----
    //
    // Functionally identical to their charged twins — same fault
    // checks, crash points, pre-image capture, short-write injection,
    // EOF clamping and version bumps — but they skip HostPageCache
    // entirely: no residency/dirty tracking and NO virtual-time charge
    // (.done == the passed ready). The O_DIRECT / GPUDirect / remote
    // backends call these and put their own device, DMA-engine, and
    // fabric reservations on top (src/storage/*).

    IoResult preadRunsUncached(int fd, ReadRun *runs, unsigned n,
                               Time ready = 0);
    IoResult pwritevUncached(int fd, const WriteRun *runs, unsigned n,
                             Time ready = 0);

    /** Uncached fsync: the backend's device-flush semantics — marks
     *  the inode's outstanding writes durable (fault injection) but
     *  charges nothing; there are no dirty page-cache granules to
     *  flush because the uncached writes never touched the cache. */
    IoResult fsyncUncached(int fd, Time ready = 0);

    Status ftruncate(int fd, uint64_t new_size);
    Status unlink(const std::string &path);
    Status stat(const std::string &path, FileInfo *out);
    Status fstat(int fd, FileInfo *out);

    /** Flush the simulated OS page cache (cold-run experiments). */
    void dropCaches() { pageCache.dropAll(); }

    // ---- fault injection / crash simulation ----

    /** True once an armed crash point fired and until faults.reboot();
     *  every data operation fails with Status::IoError while set. */
    bool crashed() const { return sim.faults.crashed(); }

    /**
     * Consult the fault plan at a named crash point. When the armed
     * point fires: the given spans of @p ino (bytes the OS happened to
     * flush before dying — e.g. journal extent records for a torn-tail
     * scenario) are promoted durable, then powerLoss() applies. Returns
     * true when the crash fired; the caller must fail its operation.
     */
    bool maybeCrash(sim::CrashPoint cp, uint64_t ino = 0,
                    const IoSpan *durable_spans = nullptr, unsigned n = 0);

    /**
     * Simulated power loss: every write that was never covered by an
     * fsync is reverted to its pre-image (newest first), file sizes and
     * versions roll back with them, and the host page cache drops.
     * Pre-images are only captured while a crash point is armed, so
     * fault-free runs pay nothing.
     */
    void powerLoss();

    // ---- recovery (journal replay after a crash) ----

    /** Re-apply one committed journal extent to the file data. Bumps
     *  the inode version once per call. NoEnt if no inode has @p ino. */
    Status replayExtent(uint64_t ino, uint64_t offset, const uint8_t *data,
                        uint64_t len);

    /** fsync by inode number (recovery flushes replayed files without
     *  an fd). Also marks the ino's outstanding writes durable. */
    Time fsyncIno(uint64_t ino, Time ready);

    HostPageCache &cache() { return pageCache; }
    sim::SimContext &simContext() { return sim; }

    /** Number of currently open descriptors (leak checks in tests). */
    size_t openCount() const;

  private:
    struct Inode {
        uint64_t ino;
        uint64_t size;
        uint64_t version;
        std::unique_ptr<ContentProvider> content;
        uint32_t nlink;     ///< 0 after unlink; freed when opens drain
        uint32_t openRefs;
    };
    struct OpenFile {
        std::shared_ptr<Inode> inode;
        uint32_t flags;
    };

    /** Pre-image of one not-yet-durable write, captured only while a
     *  crash point is armed; reverted (newest first) on power loss,
     *  dropped when an fsync covers the inode. */
    struct VolatileWrite {
        std::shared_ptr<Inode> node;
        uint64_t ino;
        uint64_t offset;
        std::vector<uint8_t> oldData;
        uint64_t prevSize;
        uint64_t prevVersion;
    };

    sim::SimContext &sim;
    HostPageCache pageCache;
    mutable std::mutex mtx;
    std::unordered_map<std::string, std::shared_ptr<Inode>> names;
    std::unordered_map<int, OpenFile> fds;
    uint64_t nextIno;
    int nextFd;

    /** Volatile-write log (fault injection only). Own mutex: capture
     *  happens outside `mtx` on the write paths. */
    std::mutex vlogMtx;
    std::vector<VolatileWrite> vlog;

    std::shared_ptr<Inode> lookupFd(int fd, uint32_t *flags_out);
    std::shared_ptr<Inode> lookupIno(uint64_t ino);

    /** Shared bodies of the charged/uncached pairs: @p charge false
     *  skips the HostPageCache charge (done stays @p ready). */
    IoResult preadRunsImpl(int fd, ReadRun *runs, unsigned n, Time ready,
                           sim::Resource *io_path, bool charge);
    IoResult pwritevImpl(int fd, const WriteRun *runs, unsigned n,
                         Time ready, sim::Resource *io_path, bool charge);
    IoResult fsyncImpl(int fd, Time ready, bool charge);
    void capturePreImage(const std::shared_ptr<Inode> &node, uint64_t offset,
                         uint64_t len);
    void markDurable(uint64_t ino, const IoSpan *spans, unsigned n);
    IoResult tornWrite(const std::shared_ptr<Inode> &node,
                       const WriteRun *runs, unsigned r, Time ready);
};

} // namespace hostfs
} // namespace gpufs

#endif // GPUFS_HOSTFS_HOSTFS_HH
