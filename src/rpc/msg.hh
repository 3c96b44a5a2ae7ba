/**
 * @file
 * RPC message set for the GPU-as-client protocol (§4.3).
 *
 * The GPU sends commands; bulk data never travels through the queue —
 * for reads and write-backs the request carries a raw pointer into the
 * GPU buffer cache and the "DMA engine" (the daemon) copies directly
 * to/from that page, exactly as the paper's CPU-initiated DMA does with
 * GPU-supplied source/destination pointers.
 */

#ifndef GPUFS_RPC_MSG_HH
#define GPUFS_RPC_MSG_HH

#include <cstdint>

#include "base/status.hh"
#include "base/units.hh"

namespace gpufs {
namespace rpc {

enum class RpcOp : uint32_t {
    Nop = 0,
    Open,        ///< open host file; returns fd, ino, size, version
    Close,       ///< close host fd
    ReadPage,    ///< host file -> GPU buffer-cache page (H2D DMA)
    ReadPages,   ///< batched: one contiguous extent -> many pages
    WritePages,  ///< page extents -> one gathered pwritev, optional zero-diff
    /** Sharded multi-GPU: like ReadPages, but the daemon first tries
     *  to serve each page from the OWNER GPU's resident frames over
     *  the peer P2P DMA channel, reading from the host only for pages
     *  the owner does not hold (request names the owner in peerGpu). */
    PeerReadPages,
    /** Sharded multi-GPU write twin: the gathered extents always land
     *  on the host as one pwritev (durability unchanged), and extents
     *  whose page is resident in the owner's cache are additionally
     *  mirrored into the owner's frames over the P2P channel so the
     *  owner keeps serving current bytes to later peer reads. */
    PeerWritePages,
    Fsync,       ///< flush host dirty pages of fd to disk
    Truncate,
    Unlink,
    Stat,
};

/** Maximum path length carried in a fixed-size request slot. */
constexpr size_t kMaxPath = 240;

/**
 * Maximum pages one ReadPages (or extents one WritePages) request
 * carries. The request slot stays fixed size (the paper's queue is an
 * array of fixed slots in shared memory), so the batch is a bounded
 * pointer array; the GPU splits longer read-ahead runs and dirty-page
 * batches into multiple requests.
 */
constexpr unsigned kMaxBatchPages = 16;

struct RpcRequest {
    RpcOp op = RpcOp::Nop;
    unsigned gpuId = 0;
    Time issueTime = 0;         ///< requester's virtual clock at submit
    /** Serving tier: tenant the originating gopen carried. The daemon's
     *  weighted scheduler keys on it, per-tenant served counters charge
     *  it, and owner-warming adoptions bill the faulting tenant's frame
     *  quota on the owner GPU. 0 (the default tenant) preserves the
     *  pre-multi-tenant FIFO behavior end to end. */
    uint8_t tenant = 0;

    char path[kMaxPath] = {};   ///< Open/Unlink/Stat
    uint32_t flags = 0;         ///< Open: host-visible open flags
    bool wantsWrite = false;    ///< Open: GPU intends to write
    /** Open: this writer's updates merge (O_GWRONCE or diff-and-merge),
     *  so it may coexist with other mergeable writers. */
    bool mergeableWriter = false;
    bool nosync = false;        ///< Open: O_NOSYNC temp file

    // ---- Peer ops (sharded multi-GPU) ----
    /** Owner GPU whose resident frames service PeerRead/WritePages. */
    uint32_t peerGpu = 0;
    /** Inode identifying the file in the owner's table (host fds are
     *  per-GPU, inodes are machine-wide). */
    uint64_t ino = 0;
    /** Requester's cached file version: the owner's copy is used only
     *  when its version matches (close-to-open consistency holds
     *  across the peer path exactly as across the host path). For
     *  PeerWritePages this is the version BEFORE the flush's first
     *  partition, so mirrors keep applying when a sibling partition
     *  already bumped the host. */
    uint64_t version = 0;
    /** PeerWritePages: this RPC is the ONLY partition of its flush
     *  batch, so a fully-mirrored owner may have the post-write
     *  version published (sibling partitions changing other pages of
     *  the file would make that publish validate stale copies). */
    bool peerPublish = false;

    /** ReadPages/PeerReadPages: this batch is read-ahead, not demand —
     *  the daemon attributes the fetched pages to its ra_pages_fetched
     *  counter so host-side reports can tell prefetch traffic from
     *  demand traffic without reaching into per-GPU StatSets. */
    bool speculative = false;

    /** Fsync: the file was opened O_GDURABLE and the caller only needs
     *  the journal commit record durable (gmsync/gfsync barrier) — the
     *  daemon answers from WriteJournal::lastCommitDone instead of
     *  fsyncing the data file, when journaling is enabled. */
    bool durableBarrier = false;

    int hostFd = -1;            ///< Close/ReadPage(s)/WritePages/Fsync/Truncate
    uint64_t offset = 0;        ///< ReadPage(s)/Truncate(new size)
    uint64_t len = 0;           ///< ReadPage; Read/WritePages: total
    uint8_t *data = nullptr;    ///< ReadPage: GPU page pointer
    bool diffAgainstZeros = false;  ///< WritePages: O_GWRONCE semantics

    // ---- Batched ops ----
    // ReadPages: one contiguous file extent starting at `offset`,
    // scattered into pageCount GPU buffer-cache frames of pageLen
    // bytes each (batch[i] receives extent byte i*pageLen onward).
    // WritePages: pageCount gathered extents; extent i is batchLen[i]
    // bytes read from GPU pointer batch[i] landing at file offset
    // batchOff[i]. Extents need not be contiguous — the daemon services
    // the whole batch as ONE HostFs::pwritev (one syscall charge, one
    // version bump) behind ONE D2H DMA reservation of `len` total
    // bytes. diffAgainstZeros applies to every extent in the batch.
    uint32_t pageCount = 0;
    uint64_t pageLen = 0;
    uint8_t *batch[kMaxBatchPages] = {};
    uint64_t batchOff[kMaxBatchPages] = {};
    uint32_t batchLen[kMaxBatchPages] = {};
};

struct RpcResponse {
    Status status = Status::Ok;
    int hostFd = -1;
    uint64_t ino = 0;
    uint64_t size = 0;
    uint64_t version = 0;
    uint64_t bytes = 0;         ///< bytes actually moved
    /** PeerReadPages: pages served from the owner's resident frames;
     *  PeerWritePages: extents mirrored into the owner's frames. The
     *  remainder fell back to the normal host path. */
    uint32_t peerPages = 0;
    Time done = 0;              ///< virtual completion time
    /** ReadPage/ReadPages/PeerReadPages: when each page of the batch
     *  is in GPU memory. A page the owner served over P2P lands as
     *  soon as the DMA has moved the bytes through it; every other
     *  page carries done, the batch's end. */
    Time pageDone[kMaxBatchPages] = {};
};

} // namespace rpc
} // namespace gpufs

#endif // GPUFS_RPC_MSG_HH
