#include "gpufs/radix.hh"

#include <cstring>

#include "base/logging.hh"

namespace gpufs {
namespace core {

std::atomic<uint64_t> FileCache::nextUid{1};

RadixNode::RadixNode(uint32_t lvl, uint64_t base)
    : level(lvl), baseIdx(base)
{
    for (auto &c : children)
        c.store(nullptr, std::memory_order_relaxed);
    if (level == 0)
        pages = std::make_unique<FPage[]>(kRadixFanout);
}

FileCache::FileCache(FrameArena &frame_arena, const CacheCounters &cnt,
                     bool force_locked)
    : arena(frame_arena), counters(cnt), forceLocked(force_locked),
      uid_(nextUid.fetch_add(1)), root(kRadixLevels - 1, 0)
{
}

FileCache::~FileCache()
{
    bool clean = dropAll();
    gpufs_assert(clean, "FileCache destroyed with pinned pages");
}

RadixNode *
FileCache::newNode(uint32_t level, uint64_t base)
{
    std::lock_guard<std::mutex> lock(allocMtx);
    nodePool.emplace_back(level, base);
    return &nodePool.back();
}

void
FileCache::pushFifo(RadixNode *leaf)
{
    std::lock_guard<std::mutex> lock(listMtx);
    RadixNode *old_head = fifoHead.load(std::memory_order_relaxed);
    leaf->fifoNext.store(old_head, std::memory_order_relaxed);
    if (old_head)
        old_head->fifoPrev.store(leaf, std::memory_order_release);
    else
        fifoTail.store(leaf, std::memory_order_release);
    fifoHead.store(leaf, std::memory_order_release);
}

RadixNode *
FileCache::insertChild(RadixNode &node, unsigned slot, uint64_t idx)
{
    SpinGuard guard(node.lock);
    RadixNode *child = node.children[slot].load(std::memory_order_acquire);
    if (child)
        return child;   // lost the race; fine
    uint32_t child_level = node.level - 1;
    // The child at this slot covers 64^(child_level+1) pages; aligning
    // idx down to that coverage IS its base index (adding a slot term
    // on top would double-count the slot bits and skew every
    // baseIdx-derived page index — i.e. every write-back offset — for
    // files larger than one leaf).
    uint64_t span = 1ull << (kRadixBits * node.level);
    uint64_t base = (idx / span) * span;
    child = newNode(child_level, base);
    // Seqlock write protocol: readers snapshotting around the child
    // load observe either the old null or the fully constructed node.
    node.seq.fetch_add(1, std::memory_order_release);      // odd
    node.children[slot].store(child, std::memory_order_release);
    node.seq.fetch_add(1, std::memory_order_release);      // even
    if (child_level == 0)
        pushFifo(child);
    return child;
}

FPage *
FileCache::walk(uint64_t idx, bool locked)
{
    RadixNode *node = &root;
    while (node->level > 0) {
        unsigned slot = slotOf(idx, node->level);
        RadixNode *child;
        if (locked) {
            node->lock.lock();
            child = node->children[slot].load(std::memory_order_acquire);
            node->lock.unlock();
        } else {
            uint32_t s1 = node->seq.load(std::memory_order_acquire);
            if (s1 & 1)
                return nullptr;     // writer active: retry
            child = node->children[slot].load(std::memory_order_acquire);
            if (node->seq.load(std::memory_order_acquire) != s1)
                return nullptr;     // raced a writer: retry
        }
        if (!child)
            child = insertChild(*node, slot, idx);
        node = child;
    }
    return &node->pages[slotOf(idx, 0)];
}

FPage *
FileCache::getPage(uint64_t page_idx)
{
    gpufs_assert(page_idx <= maxPageIndex(),
                 "page index %llu beyond radix capacity",
                 static_cast<unsigned long long>(page_idx));
    if (forceLocked) {
        counters.lockedAccesses.inc();
        FPage *p = walk(page_idx, true);
        gpufs_assert(p, "locked walk cannot fail");
        return p;
    }
    // "GPUfs retries once without locking, then locks on its third
    // attempt" (§4.2).
    for (int attempt = 0; attempt < 2; ++attempt) {
        FPage *p = walk(page_idx, false);
        if (p) {
            counters.lockfreeAccesses.inc();
            return p;
        }
    }
    counters.lockedAccesses.inc();
    FPage *p = walk(page_idx, true);
    gpufs_assert(p, "locked walk cannot fail");
    return p;
}

FPage *
FileCache::findPage(uint64_t page_idx)
{
    if (page_idx > maxPageIndex())
        return nullptr;
    RadixNode *node = &root;
    while (node->level > 0) {
        RadixNode *child =
            node->children[slotOf(page_idx, node->level)].load(
                std::memory_order_acquire);
        if (!child)
            return nullptr;
        node = child;
    }
    return &node->pages[slotOf(page_idx, 0)];
}

uint32_t
FileCache::claimFrame(FPage &p, uint64_t page_idx, uint8_t tenant)
{
    uint32_t f = arena.allocFor(tenant);
    if (f == kNoFrame)
        return kNoFrame;
    PFrame &pf = arena.frame(f);
    pf.fileUid.store(uid_, std::memory_order_relaxed);
    pf.pageIdx.store(page_idx, std::memory_order_relaxed);
    pf.owner.store(&p, std::memory_order_relaxed);
    pf.lastAccess.store(arena.nextTick(), std::memory_order_relaxed);
    p.frame.store(f, std::memory_order_release);
    return f;
}

bool
FileCache::tryPinReady(FPage &p, uint64_t page_idx, uint32_t *frame_out)
{
    p.refs.fetch_add(1, std::memory_order_seq_cst);
    if (p.state.load(std::memory_order_seq_cst) == kPageReady) {
        uint32_t f = p.frame.load(std::memory_order_acquire);
        if (f != kNoFrame) {
            PFrame &pf = arena.frame(f);
            // Identity check: frames recycle, so verify this frame
            // still belongs to (this tree, this page index).
            if (pf.fileUid.load(std::memory_order_acquire) == uid_ &&
                pf.pageIdx.load(std::memory_order_relaxed) == page_idx) {
                pf.lastAccess.store(arena.nextTick(),
                                    std::memory_order_relaxed);
                *frame_out = f;
                return true;
            }
        }
    }
    p.refs.fetch_sub(1, std::memory_order_seq_cst);
    return false;
}

unsigned
FileCache::beginInitBatch(uint64_t start_idx, unsigned max_n,
                          BatchSlot *out)
{
    unsigned n = 0;
    while (n < max_n) {
        uint64_t idx = start_idx + n;
        if (idx > maxPageIndex())
            break;
        FPage *p = getPage(idx);
        if (!p->lock.tryLock())
            break;
        if (p->state.load(std::memory_order_acquire) != kPageEmpty) {
            p->lock.unlock();
            break;
        }
        uint32_t f = claimFrame(*p, idx, tenantOf());
        if (f == kNoFrame) {
            p->lock.unlock();
            break;
        }
        p->state.store(kPageInit, std::memory_order_release);
        out[n++] = BatchSlot{p, f};
    }
    return n;
}

void
FileCache::finishInitBatch(const BatchSlot *slots, unsigned n,
                           const uint32_t *valid, const Time *ready,
                           bool speculative, uint8_t stream)
{
    for (unsigned i = 0; i < n; ++i) {
        PFrame &pf = arena.frame(slots[i].frame);
        pf.validBytes.store(valid[i], std::memory_order_relaxed);
        // Tagged before the state flips to Ready (still under the
        // fpage lock): the first pinner must either see the tag and
        // promote, or not see the page at all. The stream slot rides
        // along (stored first: whoever wins the speculative exchange
        // reads it afterwards) so feedback routes to the issuer.
        pf.raStream.store(speculative ? stream
                                      : ReadAheadStreams::kNoStream,
                          std::memory_order_relaxed);
        if (speculative)
            pf.speculative.store(true, std::memory_order_release);
        // The prefetching block does not wait: readyTime gates whoever
        // pins the page first.
        pf.readyTime.store(ready[i], std::memory_order_release);
        slots[i].page->state.store(kPageReady, std::memory_order_release);
        slots[i].page->lock.unlock();
    }
}

void
FileCache::abortInitBatch(const BatchSlot *slots, unsigned n)
{
    for (unsigned i = 0; i < n; ++i) {
        slots[i].page->frame.store(kNoFrame, std::memory_order_relaxed);
        slots[i].page->state.store(kPageEmpty, std::memory_order_release);
        arena.free(slots[i].frame);
        slots[i].page->lock.unlock();
    }
}

bool
FileCache::tryAdoptPage(uint64_t page_idx, const uint8_t *src,
                        uint32_t valid, Time ready, uint8_t tenant)
{
    if (page_idx > maxPageIndex() || valid == 0)
        return false;
    FPage *p = getPage(page_idx);
    if (!p->lock.tryLock())
        return false;
    if (p->state.load(std::memory_order_acquire) != kPageEmpty) {
        p->lock.unlock();
        return false;
    }
    uint32_t f = claimFrame(*p, page_idx, tenant);
    if (f == kNoFrame) {
        p->lock.unlock();
        return false;
    }
    PFrame &pf = arena.frame(f);
    std::memcpy(arena.data(f), src, valid);
    pf.validBytes.store(valid, std::memory_order_relaxed);
    pf.readyTime.store(ready, std::memory_order_release);
    p->state.store(kPageReady, std::memory_order_release);
    p->lock.unlock();
    return true;
}

unsigned
FileCache::takeDirtyBatch(uint64_t first_page, uint64_t last_page,
                          DirtyExtent *out, unsigned max_n)
{
    unsigned n = 0;
    for (RadixNode *nd = fifoTail.load(std::memory_order_acquire);
         nd != nullptr && n < max_n;
         nd = nd->fifoPrev.load(std::memory_order_acquire)) {
        for (unsigned i = 0; i < kRadixFanout && n < max_n; ++i) {
            uint64_t idx = nd->baseIdx + i;
            if (idx < first_page || idx >= last_page)
                continue;
            FPage &p = nd->pages[i];
            if (p.state.load(std::memory_order_acquire) != kPageReady)
                continue;
            uint32_t f = p.frame.load(std::memory_order_acquire);
            if (f == kNoFrame || !arena.frame(f).isDirty())
                continue;   // clean (awaitWritebacks barriers in-flight)
            if (p.refs.load(std::memory_order_relaxed) != 0)
                continue;   // concurrently accessed: skip (API: gfsync)
            // Lock and KEEP the lock until finishDirtyBatch: the frame
            // cannot be reclaimed under the batched RPC, and a
            // concurrent sync of this page waits here instead of
            // skipping an in-flight write-back (acquisition follows
            // the leaf-FIFO walk order, so collectors cannot
            // deadlock).
            p.lock.lock();
            if (p.state.load(std::memory_order_acquire) != kPageReady) {
                p.lock.unlock();
                continue;
            }
            f = p.frame.load(std::memory_order_acquire);
            PFrame &pf = arena.frame(f);
            // Atomically TAKE the extent: ranges merged by concurrent
            // (lock-free) writers after this point form a fresh extent
            // synced by a later pass, so no dirty byte is ever lost.
            uint64_t e = takeDirtyCounted(pf);
            uint32_t lo = PFrame::extentLo(e);
            uint32_t hi = PFrame::extentHi(e);
            if (lo >= hi) {
                p.lock.unlock();
                continue;
            }
            out[n++] = {&p, idx, f, lo, hi};
        }
    }
    return n;
}

void
FileCache::finishDirtyBatch(const DirtyExtent *ext, unsigned n,
                            bool restore)
{
    for (unsigned i = 0; i < n; ++i) {
        if (restore)
            noteDirty(arena.frame(ext[i].frame), ext[i].lo, ext[i].hi);
        ext[i].page->lock.unlock();
    }
}

void
FileCache::awaitWritebacks(uint64_t first_page, uint64_t last_page)
{
    for (RadixNode *nd = fifoTail.load(std::memory_order_acquire);
         nd != nullptr;
         nd = nd->fifoPrev.load(std::memory_order_acquire)) {
        for (unsigned i = 0; i < kRadixFanout; ++i) {
            uint64_t idx = nd->baseIdx + i;
            if (idx < first_page || idx >= last_page)
                continue;
            FPage &p = nd->pages[i];
            if (p.state.load(std::memory_order_acquire) != kPageReady)
                continue;
            // A collector holds the fpage lock from before it takes
            // the extent until its write-back RPC completes, so a
            // brief acquire is the completion barrier. One atomic RMW
            // pair per resident page, once per sync — not per batch.
            p.lock.lock();
            p.lock.unlock();
        }
    }
}

bool
FileCache::dropAll()
{
    bool all_clean = true;
    for (RadixNode *n = fifoTail.load(std::memory_order_acquire);
         n != nullptr; n = n->fifoPrev.load(std::memory_order_acquire)) {
        for (unsigned i = 0; i < kRadixFanout; ++i) {
            FPage &p = n->pages[i];
            if (p.state.load(std::memory_order_acquire) == kPageEmpty)
                continue;
            if (p.refs.load(std::memory_order_relaxed) != 0) {
                all_clean = false;
                continue;
            }
            SpinGuard guard(p.lock);
            if (p.state.load(std::memory_order_acquire) != kPageReady)
                continue;
            if (p.refs.load(std::memory_order_seq_cst) != 0) {
                all_clean = false;
                continue;
            }
            uint32_t f = p.frame.load(std::memory_order_acquire);
            PFrame &pf = arena.frame(f);
            if (pf.isDirty())
                dirtyPages_.fetch_sub(1, std::memory_order_relaxed);
            uint32_t pristine = pf.pristineFrame.exchange(
                kNoFrame, std::memory_order_acq_rel);
            if (pristine != kNoFrame)
                arena.free(pristine);
            // A dropped never-pinned prefetch is as wasted as an
            // evicted one (invalidation/truncate/unlink paths).
            retireSpeculative(pf, n->baseIdx + i);
            p.frame.store(kNoFrame, std::memory_order_relaxed);
            arena.free(f);
            p.state.store(kPageEmpty, std::memory_order_release);
        }
    }
    return all_clean;
}

void
FileCache::noteDirty(PFrame &pf, uint32_t lo, uint32_t hi)
{
    if (lo >= hi)
        return;
    // mergeDirty reports the clean->dirty transition exactly once
    // (the CAS winner), which owns the dirty-count increment.
    if (pf.mergeDirty(lo, hi))
        dirtyPages_.fetch_add(1, std::memory_order_relaxed);
}

uint64_t
FileCache::residentPages() const
{
    uint64_t n = 0;
    for (const RadixNode *node = fifoTail.load(std::memory_order_acquire);
         node != nullptr;
         node = node->fifoPrev.load(std::memory_order_acquire)) {
        for (unsigned i = 0; i < kRadixFanout; ++i) {
            if (node->pages[i].state.load(std::memory_order_acquire)
                == kPageReady) {
                ++n;
            }
        }
    }
    return n;
}

bool
FileCache::anyPinned() const
{
    for (const RadixNode *node = fifoTail.load(std::memory_order_acquire);
         node != nullptr;
         node = node->fifoPrev.load(std::memory_order_acquire)) {
        for (unsigned i = 0; i < kRadixFanout; ++i) {
            if (node->pages[i].refs.load(std::memory_order_acquire) != 0)
                return true;
        }
    }
    return false;
}

void
FileCache::releasePins()
{
    for (RadixNode *node = fifoTail.load(std::memory_order_acquire);
         node != nullptr;
         node = node->fifoPrev.load(std::memory_order_acquire)) {
        for (unsigned i = 0; i < kRadixFanout; ++i)
            node->pages[i].refs.store(0, std::memory_order_relaxed);
    }
}

} // namespace core
} // namespace gpufs
