/**
 * @file
 * PeerPageSource: the daemon's window into one GPU's buffer cache for
 * servicing PeerReadPages / PeerWritePages (sharded multi-GPU cache).
 *
 * The interface lives in the rpc layer so CpuDaemon does not depend on
 * the GPU-side cache types; GpuFs implements it and GpufsSystem wires
 * one source per attached GPU. Every method runs on the DAEMON thread
 * against the OWNER GPU's state while that GPU's blocks keep running,
 * so implementations must obey two hard rules:
 *
 *  - NEVER block: a GPU block may hold its table lock across a
 *    synchronous RPC the daemon is about to service — any blocking
 *    acquisition here is a deadlock cycle. Implementations use
 *    try-locks and report "not served" on contention; the daemon then
 *    falls back to the host path, which is always correct.
 *  - Version-gate every access: serve (or mirror into) the owner's
 *    copy only when the owner's cached file version matches the
 *    requester's, so the peer path is exactly as consistent as the
 *    host path under close-to-open semantics.
 */

#ifndef GPUFS_RPC_PEER_HH
#define GPUFS_RPC_PEER_HH

#include <cstdint>

#include "base/units.hh"

namespace gpufs {
namespace rpc {

/** Outcome of one peer page copy: Served, or why the page falls back
 *  to the host path. */
enum class PeerCopy : uint8_t {
    Served,
    Busy,       ///< the owner's table try-lock was contended
    NoEntry,    ///< the owner has no cache entry for the inode
    Stale,      ///< the owner's entry failed the version gate
    Cold,       ///< the page is not resident, or not Ready
    Unclean,    ///< dirty, or valid bytes do not match the file size
    NoSource,   ///< the owner GPU has no attached source (daemon-side)
};

constexpr unsigned kPeerCopyOutcomes = 7;

/** Short name of @p c. The daemon counts the pages of each fallback
 *  reason as peer_fallback_<name>. */
inline const char *
peerCopyName(PeerCopy c)
{
    static const char *const kNames[kPeerCopyOutcomes] = {
        "served", "busy", "no_entry", "stale", "cold", "unclean",
        "no_source"};
    return kNames[static_cast<unsigned>(c)];
}

class PeerPageSource
{
  public:
    virtual ~PeerPageSource() = default;

    /**
     * Copy page @p page_idx of file @p ino out of this GPU's resident
     * frames into @p dst (a frame of the REQUESTING GPU, claimed and
     * lock-held by its split-phase fetch). Served only when the page
     * is Ready, clean, identity-verified, and the owner's file version
     * equals @p version; the frame is pinned for the duration of the
     * copy so owner-side eviction cannot recycle it mid-transfer.
     *
     * @param valid_out  bytes of real file content in the page
     * @param ready_out  maxed with the owner frame's DMA-ready time so
     *                   the peer transfer cannot begin, in virtual
     *                   time, before the content existed
     * @return Served, or the reason the page was not served.
     */
    virtual PeerCopy peerCopyPage(uint64_t ino, uint64_t page_idx,
                                  uint64_t version, uint8_t *dst,
                                  uint32_t *valid_out,
                                  Time *ready_out) = 0;

    /**
     * Mirror a written extent (@p len bytes at @p in_page within page
     * @p page_idx) into this GPU's resident copy, keeping it current
     * while the same extent lands on the host through the enclosing
     * PeerWritePages' gathered pwritev. Mirrors only resident pages of
     * a cache whose file version equals @p version (the requester's
     * pre-write version — anything else and the mirrored page's
     * provenance would be unclear). @return true iff mirrored.
     */
    virtual bool peerMirrorExtent(uint64_t ino, uint64_t page_idx,
                                  uint64_t version, uint32_t in_page,
                                  const uint8_t *src, uint32_t len) = 0;

    /**
     * Advance this GPU's cached version of @p ino from @p old_version
     * to @p new_version. Called after a PeerWritePages whose extents
     * were ALL mirrored: the owner's copy then matches the post-write
     * host content byte for byte, so bumping the version keeps the
     * owner serving peer reads instead of failing their version gate
     * (and keeps its own reopen from discarding a current cache).
     */
    virtual void peerPublishVersion(uint64_t ino, uint64_t old_version,
                                    uint64_t new_version) = 0;

    /**
     * Owner warming: adopt @p valid bytes of page @p page_idx into
     * this GPU's cache after a PeerReadPages HOST FALLBACK read them
     * on the owner's behalf — the owner was cold, and without this the
     * next peer miss on the page pays the storage round trip again.
     * Same hard rules as above (try-locks only, version gate against
     * @p version); additionally best-effort on space: the adoption
     * must not evict or exceed @p tenant's frame quota, so decline is
     * common and harmless. @p ready is the fallback read's completion
     * time, carried so a later serve of the adopted copy cannot begin
     * before the bytes existed. Default declines (sources without an
     * adopting cache).
     */
    virtual bool
    peerAdoptPage(uint64_t ino, uint64_t page_idx, uint64_t version,
                  const uint8_t *data, uint32_t valid, Time ready,
                  uint8_t tenant)
    {
        (void)ino; (void)page_idx; (void)version; (void)data;
        (void)valid; (void)ready; (void)tenant;
        return false;
    }
};

} // namespace rpc
} // namespace gpufs

#endif // GPUFS_RPC_PEER_HH
