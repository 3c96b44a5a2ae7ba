/**
 * @file
 * GPUfs open and closed file tables (§4.1).
 *
 * "File descriptors" do not represent individual opens — they
 * correspond directly to files, so all GPU threadblocks opening the
 * same file share one reference-counted entry; a gopen of an
 * already-open file just bumps the count without CPU communication.
 *
 * When the count drops to zero the entry moves to the Closed state but
 * its page cache is *retained* until reclaimed: the nondeterministic
 * block scheduler routinely drives a file's count to zero between
 * block waves, and gopen checks closed entries first to recover the
 * cache (validated against the host's version number — the lazy
 * invalidation of §4.4).
 *
 * Footnote 2 of the paper omits "technical details on handling dirty
 * files on close"; this implementation resolves them as follows: a
 * file closed with dirty pages keeps its host fd (and consistency
 * write claim) alive so that later eviction can still write the pages
 * back; the fd is released when the pages are synced, invalidated, or
 * the entry is recycled.
 *
 * FileTable owns the entry array, its state transitions and the
 * indexes that find entries without scanning it; all calls must run
 * under the owning GpuFs's table lock.
 */

#ifndef GPUFS_GPUFS_FILE_TABLE_HH
#define GPUFS_GPUFS_FILE_TABLE_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "gpufs/buffer_cache.hh"

namespace gpufs {
namespace core {

/** GPUfs open flags. G_GWRONCE / G_NOSYNC are the new modes of §3.2. */
enum GOpenFlags : uint32_t {
    G_RDONLY = 0x0,
    G_WRONLY = 0x1,
    G_RDWR = 0x2,
    G_ACCMODE = 0x3,
    G_CREAT = 0x40,
    G_TRUNC = 0x200,
    /** Write-once file: no fetch-before-write, diff-against-zeros
     *  write-back; partial updates possible if bytes are overwritten. */
    G_GWRONCE = 0x10000,
    /** GPU-local temporary: never synchronized to the host. */
    G_NOSYNC = 0x20000,
    /** Durable file (crash consistency): write-backs are journaled by
     *  the daemon when GpuFsParams::journalWriteback is on, and
     *  gfsync/gmsync completion means the journal commit record — not
     *  merely the host page cache — holds the data. Per-file, after
     *  the cuda-durable-allocator design. */
    G_GDURABLE = 0x40000,
    /** Tenant id field (serving tier): bits [20, 22) carry the opener's
     *  TenantId, composed with g_tenant_flags(). The bits never reach
     *  the host open (hostOpenFlags copies named bits only); they ride
     *  the entry's flag word into CacheFile::tenant, where frame and
     *  victim quotas and the daemon's DRR scheduler read them. */
    G_TENANT_SHIFT = 20,
    G_TENANT_MASK = 0x3 << G_TENANT_SHIFT,
};

/** Compose the flag bits carrying @p tenant (OR into gopen flags). */
constexpr uint32_t
g_tenant_flags(TenantId tenant)
{
    return (static_cast<uint32_t>(tenant) << G_TENANT_SHIFT) &
        G_TENANT_MASK;
}

/** Extract the TenantId a gopen flag word carries. */
constexpr TenantId
g_tenant_of(uint32_t flags)
{
    return static_cast<TenantId>((flags & G_TENANT_MASK) >>
                                 G_TENANT_SHIFT);
}

/** Result of gfstat. */
struct GStat {
    uint64_t ino;
    /** File size as of the first gopen on the host, extended by local
     *  writes (§3.2: "file size reflects size at the time of the first
     *  gopen"). */
    uint64_t size;
};

/** One file-table entry. State transitions happen under the GpuFs
 *  table lock, and only through FileTable (markOpen / markClosed /
 *  markFree), which keeps its lookup indexes in step with them;
 *  data-plane fields are read lock-free. The cache-layer view of the
 *  file (page cache, host fd, size/version, write-back semantics)
 *  lives in the embedded CacheFile, which the API layer keeps current
 *  as flags and open state change. */
struct OpenFile {
    enum class EState { Free, Open, Closed };

    std::string path;
    uint64_t ino = 0;
    uint32_t flags = 0;
    std::atomic<int> refs{0};

    /** Cache-layer state; registered with the BufferCache. */
    CacheFile cf;

    EState state() const { return state_; }

    bool
    wantsWrite() const
    {
        // O_GWRONCE "creates a new write-only file" (§3.2): it implies
        // write access even without an explicit access-mode bit.
        return (flags & G_ACCMODE) != G_RDONLY || (flags & G_GWRONCE);
    }
    bool gwronce() const { return flags & G_GWRONCE; }
    bool nosync() const { return flags & G_NOSYNC; }
    bool gdurable() const { return flags & G_GDURABLE; }
    TenantId tenant() const { return g_tenant_of(flags); }

    /** Project the flag word into the cache layer's policy booleans. */
    void
    syncCacheFlags()
    {
        cf.write = wantsWrite();
        cf.wronce = gwronce();
        cf.noSync = nosync();
        cf.durable.store(gdurable(), std::memory_order_relaxed);
        cf.tenant.store(tenant(), std::memory_order_relaxed);
    }

  private:
    friend class FileTable;

    EState state_ = EState::Free;

    /** Return the entry to the Free state (cache already destroyed and
     *  host fd released by the caller). */
    void
    resetEntry()
    {
        state_ = EState::Free;
        path.clear();
        ino = 0;
        flags = 0;
        refs.store(0, std::memory_order_relaxed);
        cf.ino = 0;
        cf.version.store(0, std::memory_order_relaxed);
        cf.size.store(0, std::memory_order_relaxed);
        cf.closed = false;
        // Recycled slots must not inherit the fsync-dedup arming from
        // the previous tenant (a spurious host fsync per reuse).
        cf.needsFsync.store(false, std::memory_order_relaxed);
        // Nor the previous tenant's access pattern: a recycled slot's
        // read-ahead window, throttle and ghost ring describe a file
        // that is gone.
        cf.ra.reset();
        syncCacheFlags();
    }
};

/**
 * The fixed-capacity entry array, its state transitions and its lookup
 * indexes. Every lookup returns exactly the entry a linear scan of the
 * array would, i.e. the lowest matching slot (for the inode lookups,
 * the lowest one at the asked version, else the lowest at any); the
 * indexes only make finding it cheaper. They are updated by the three
 * transition calls, the only writers of OpenFile::state, so they can
 * never disagree with the entries. Thread-compatible: the owning GpuFs serializes access
 * with its table lock.
 */
class FileTable
{
  public:
    explicit FileTable(unsigned capacity);

    size_t size() const { return entries_.size(); }
    OpenFile &at(int fd) { return *entries_[fd]; }

    /** Validate @p fd and return its entry iff it is Open. */
    OpenFile *openEntry(int fd);

    // ---- state transitions ----

    /**
     * Free or Closed -> Open: set path, inode and flags, one reference,
     * and project the flags into the cache layer.
     */
    void markOpen(int idx, const std::string &path, uint64_t ino,
                  uint32_t flags);

    /** Open -> Closed. The cache layer has stamped cf.closeSeq
     *  (BufferCache::parkFile), which orders recycling. */
    void markClosed(int idx);

    /** Any -> Free (cache already destroyed and host fd released by
     *  the caller). */
    void markFree(int idx);

    // ---- lookups ----

    /** Index of the Open entry for @p path, or -1. */
    int findOpenByPath(const std::string &path) const;

    /** Slots of every Open or Closed entry named @p path, ascending
     *  (gunlink reclaims all of them). */
    std::vector<int> slotsOfPath(const std::string &path) const;

    /** Index of the Closed entry caching inode @p ino with a live
     *  cache at @p version, else of the lowest Closed entry for it
     *  (stale), or -1. A stale entry still in use stays parked beside
     *  the current one and must not hide it. */
    int findClosedByIno(uint64_t ino, uint64_t version) const;

    /** The Open OR Closed entry for inode @p ino with a live cache at
     *  @p version, else the lowest one with a live cache at any
     *  version (for the caller's version gate to reject), or null.
     *  The daemon's peer-cache probes use this: a parked entry's
     *  retained cache serves peer reads exactly like an open one
     *  (wait-after-close across GPUs). */
    OpenFile *findAnyByIno(uint64_t ino, uint64_t version);

    /** Index of the first Free entry, or -1. */
    int findFree() const;

    /**
     * Pick the Closed entry to recycle when the table is full: oldest
     * close stamp first, preferring clean entries (their caches drop
     * without write-back), skipping caches still in use
     * (CacheFile::inUse). @return index, or -1 if none qualifies.
     */
    int pickRecyclable() const;

    /**
     * Index of a Closed entry whose cache eviction has fully drained
     * (no resident and no dirty pages), or -1. The owner destroys
     * such entries on the open slow path — retaining their empty
     * radix trees would hold memory proportional to every file ever
     * streamed through the cache. Visits only drain candidates: the
     * entries parked or reported by noteEvicted since they were last
     * seen holding a Ready page.
     */
    int findDrainedClosed();

    /** Slot @p idx lost pages (BufferCache::takeEvictedParked): if it
     *  is Closed it may have drained, so findDrainedClosed re-checks
     *  it. */
    void noteEvicted(int idx);

    /** Entry whose page-cache uid is @p uid (gmsync path), or null.
     *  A linear scan: only the per-mapping gmsync calls it. */
    OpenFile *findByCacheUid(uint64_t uid);

    /** Entries (any state) currently holding a host fd. */
    unsigned countHostFds() const;

    std::vector<std::unique_ptr<OpenFile>> &entries() { return entries_; }

  private:
    /** Ascending slots of the entries sharing one key. Almost always
     *  one slot: only a stale cache parked while still in use (an
     *  unretired async token, or a mapping that outlived gclose)
     *  leaves two entries for one inode. */
    using Slots = std::vector<int>;

    static void addSlot(Slots &slots, int idx);
    template <typename Map, typename Key>
    static void dropSlot(Map &index, const Key &key, int idx);

    std::vector<std::unique_ptr<OpenFile>> entries_;

    /** Open and Closed entries by path and by inode. */
    std::unordered_map<std::string, Slots> byPath_;
    std::unordered_map<uint64_t, Slots> byIno_;
    std::set<int> free_;
    /** Closed entries that may have drained, in slot order. Every
     *  drained Closed entry is here: an entry leaves only while it
     *  holds a Ready page, and losing that page reports it back. */
    std::set<int> drainCandidates_;
    /** Closed entries by (cf.closeSeq, slot), for recycling. The stamp
     *  does not change while the entry is Closed. */
    std::set<std::pair<uint64_t, int>> closedBySeq_;
};

} // namespace core
} // namespace gpufs

#endif // GPUFS_GPUFS_FILE_TABLE_HH
