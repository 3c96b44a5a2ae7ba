#include "gpufs/file_table.hh"

#include <algorithm>

namespace gpufs {
namespace core {

FileTable::FileTable(unsigned capacity)
{
    entries_.resize(capacity);
    for (unsigned i = 0; i < capacity; ++i) {
        entries_[i] = std::make_unique<OpenFile>();
        free_.insert(free_.end(), static_cast<int>(i));
    }
}

void
FileTable::addSlot(Slots &slots, int idx)
{
    slots.insert(std::lower_bound(slots.begin(), slots.end(), idx), idx);
}

template <typename Map, typename Key>
void
FileTable::dropSlot(Map &index, const Key &key, int idx)
{
    auto it = index.find(key);
    if (it == index.end())
        return;
    Slots &slots = it->second;
    auto pos = std::lower_bound(slots.begin(), slots.end(), idx);
    if (pos != slots.end() && *pos == idx)
        slots.erase(pos);
    if (slots.empty())
        index.erase(it);
}

OpenFile *
FileTable::openEntry(int fd)
{
    if (fd < 0 || static_cast<size_t>(fd) >= entries_.size())
        return nullptr;
    OpenFile *e = entries_[fd].get();
    return e->state_ == OpenFile::EState::Open ? e : nullptr;
}

void
FileTable::markOpen(int idx, const std::string &path, uint64_t ino,
                    uint32_t flags)
{
    OpenFile &e = *entries_[idx];
    if (e.state_ == OpenFile::EState::Free) {
        free_.erase(idx);
        addSlot(byPath_[path], idx);
        addSlot(byIno_[ino], idx);
    } else {
        if (e.state_ == OpenFile::EState::Closed) {
            drainCandidates_.erase(idx);
            closedBySeq_.erase({e.cf.closeSeq, idx});
        }
        if (e.path != path) {
            dropSlot(byPath_, e.path, idx);
            addSlot(byPath_[path], idx);
        }
        if (e.ino != ino) {
            dropSlot(byIno_, e.ino, idx);
            addSlot(byIno_[ino], idx);
        }
    }
    e.state_ = OpenFile::EState::Open;
    e.path = path;
    e.ino = ino;
    e.flags = flags;
    e.refs.store(1, std::memory_order_relaxed);
    e.cf.ino = ino;
    e.syncCacheFlags();
}

void
FileTable::markClosed(int idx)
{
    OpenFile &e = *entries_[idx];
    e.state_ = OpenFile::EState::Closed;
    drainCandidates_.insert(idx);
    closedBySeq_.insert({e.cf.closeSeq, idx});
}

void
FileTable::markFree(int idx)
{
    OpenFile &e = *entries_[idx];
    if (e.state_ != OpenFile::EState::Free) {
        if (e.state_ == OpenFile::EState::Closed) {
            drainCandidates_.erase(idx);
            closedBySeq_.erase({e.cf.closeSeq, idx});
        }
        dropSlot(byPath_, e.path, idx);
        dropSlot(byIno_, e.ino, idx);
        free_.insert(idx);
    }
    e.resetEntry();
}

int
FileTable::findOpenByPath(const std::string &path) const
{
    auto it = byPath_.find(path);
    if (it == byPath_.end())
        return -1;
    for (int idx : it->second) {
        if (entries_[idx]->state_ == OpenFile::EState::Open)
            return idx;
    }
    return -1;
}

std::vector<int>
FileTable::slotsOfPath(const std::string &path) const
{
    auto it = byPath_.find(path);
    return it == byPath_.end() ? std::vector<int>{} : it->second;
}

int
FileTable::findClosedByIno(uint64_t ino, uint64_t version) const
{
    auto it = byIno_.find(ino);
    if (it == byIno_.end())
        return -1;
    int first = -1;
    for (int idx : it->second) {
        const OpenFile &e = *entries_[idx];
        if (e.state_ != OpenFile::EState::Closed)
            continue;
        if (e.cf.cache &&
            e.cf.version.load(std::memory_order_relaxed) == version)
            return idx;
        if (first < 0)
            first = idx;
    }
    return first;
}

OpenFile *
FileTable::findAnyByIno(uint64_t ino, uint64_t version)
{
    auto it = byIno_.find(ino);
    if (it == byIno_.end())
        return nullptr;
    OpenFile *first = nullptr;
    for (int idx : it->second) {
        OpenFile *e = entries_[idx].get();
        if (!e->cf.cache)
            continue;
        if (e->cf.version.load(std::memory_order_acquire) == version)
            return e;
        if (!first)
            first = e;
    }
    return first;
}

int
FileTable::findFree() const
{
    return free_.empty() ? -1 : *free_.begin();
}

int
FileTable::pickRecyclable() const
{
    // closedBySeq_ is ordered by (close stamp, slot): the first
    // eligible entry is the one with the oldest stamp, and stamps are
    // unique, so it is the entry a minimum search over all slots picks.
    for (int pass = 0; pass < 2; ++pass) {
        for (const auto &[seq, idx] : closedBySeq_) {
            const OpenFile &e = *entries_[idx];
            bool clean = !e.cf.cache || e.cf.cache->dirtyCount() == 0;
            if ((pass == 0 && !clean) || e.cf.inUse())
                continue;
            return idx;
        }
    }
    return -1;
}

void
FileTable::noteEvicted(int idx)
{
    if (entries_[idx]->state_ == OpenFile::EState::Closed)
        drainCandidates_.insert(idx);
}

int
FileTable::findDrainedClosed()
{
    for (auto it = drainCandidates_.begin(); it != drainCandidates_.end();) {
        const CacheFile &cf = entries_[*it]->cf;
        if (!cf.cache || cf.cache->residentPages() != 0) {
            // Not drained, and it can drain only by losing its Ready
            // pages, which noteEvicted reports.
            it = drainCandidates_.erase(it);
            continue;
        }
        if (cf.cache->dirtyCount() == 0 &&
            cf.fetchInFlight.load(std::memory_order_acquire) == 0 &&
            cf.opInFlight.load(std::memory_order_acquire) == 0) {
            // Split-phase fetches sit in Init (invisible to
            // residentPages) with the daemon's DMA still inbound, and
            // unretired tokens still resolve through this cache —
            // neither is "drained". Such entries stay candidates.
            return *it;
        }
        ++it;
    }
    return -1;
}

OpenFile *
FileTable::findByCacheUid(uint64_t uid)
{
    for (auto &e : entries_) {
        if (e->cf.cache && e->cf.cache->uid() == uid)
            return e.get();
    }
    return nullptr;
}

unsigned
FileTable::countHostFds() const
{
    unsigned n = 0;
    for (const auto &e : entries_)
        n += e->cf.hostFd >= 0 ? 1 : 0;
    return n;
}

} // namespace core
} // namespace gpufs
