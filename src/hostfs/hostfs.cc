#include "hostfs/hostfs.hh"

#include <algorithm>

#include "base/logging.hh"

namespace gpufs {
namespace hostfs {

HostFs::HostFs(sim::SimContext &sim_ctx)
    : sim(sim_ctx), pageCache(sim_ctx), nextIno(1), nextFd(3)
{
}

HostFs::~HostFs() = default;

Status
HostFs::addFile(const std::string &path,
                std::unique_ptr<ContentProvider> content, uint64_t size)
{
    std::lock_guard<std::mutex> lock(mtx);
    if (names.count(path))
        return Status::Exists;
    auto node = std::make_shared<Inode>();
    node->ino = nextIno++;
    node->size = size;
    node->version = 1;
    node->content = std::move(content);
    node->nlink = 1;
    node->openRefs = 0;
    names.emplace(path, std::move(node));
    return Status::Ok;
}

int
HostFs::open(const std::string &path, uint32_t flags, Status *st)
{
    std::lock_guard<std::mutex> lock(mtx);
    auto it = names.find(path);
    std::shared_ptr<Inode> node;
    if (it == names.end()) {
        if (!(flags & O_CREAT_F)) {
            if (st)
                *st = Status::NoEnt;
            return -1;
        }
        node = std::make_shared<Inode>();
        node->ino = nextIno++;
        node->size = 0;
        node->version = 1;
        node->content = std::make_unique<InMemoryContent>();
        node->nlink = 1;
        node->openRefs = 0;
        names.emplace(path, node);
    } else {
        node = it->second;
    }
    if ((flags & O_ACCMODE_F) != O_RDONLY_F && !node->content->writable()) {
        if (st)
            *st = Status::ReadOnlyFile;
        return -1;
    }
    if (flags & O_TRUNC_F) {
        node->size = 0;
        node->version++;
        pageCache.dropFile(node->ino);
    }
    node->openRefs++;
    int fd = nextFd++;
    fds.emplace(fd, OpenFile{node, flags});
    if (st)
        *st = Status::Ok;
    return fd;
}

std::shared_ptr<HostFs::Inode>
HostFs::lookupFd(int fd, uint32_t *flags_out)
{
    std::lock_guard<std::mutex> lock(mtx);
    auto it = fds.find(fd);
    if (it == fds.end())
        return nullptr;
    if (flags_out)
        *flags_out = it->second.flags;
    return it->second.inode;
}

Status
HostFs::close(int fd)
{
    std::lock_guard<std::mutex> lock(mtx);
    auto it = fds.find(fd);
    if (it == fds.end())
        return Status::BadFd;
    it->second.inode->openRefs--;
    fds.erase(it);
    return Status::Ok;
}

IoResult
HostFs::pread(int fd, uint8_t *dst, uint64_t len, uint64_t offset,
              Time ready, sim::Resource *io_path)
{
    ReadRun run{offset, &dst, 1, len};
    return preadRunsImpl(fd, &run, 1, ready, io_path, true);
}

IoResult
HostFs::preadRuns(int fd, ReadRun *runs, unsigned n, Time ready,
                  sim::Resource *io_path)
{
    return preadRunsImpl(fd, runs, n, ready, io_path, true);
}

IoResult
HostFs::preadRunsUncached(int fd, ReadRun *runs, unsigned n, Time ready)
{
    return preadRunsImpl(fd, runs, n, ready, nullptr, false);
}

IoResult
HostFs::preadRunsImpl(int fd, ReadRun *runs, unsigned n, Time ready,
                      sim::Resource *io_path, bool charge)
{
    uint32_t flags;
    auto node = lookupFd(fd, &flags);
    if (!node)
        return {Status::BadFd, 0, ready};
    if (sim.faults.crashed() || sim.faults.takeFault(sim::FaultOp::HostRead))
        return {Status::IoError, 0, ready};
    uint64_t size;
    uint64_t ino;
    {
        std::lock_guard<std::mutex> lock(mtx);
        size = node->size;
        ino = node->ino;
    }
    uint64_t total = 0;
    std::vector<IoSpan> spans(n);
    for (unsigned r = 0; r < n; ++r) {
        ReadRun &run = runs[r];
        run.bytes = 0;
        if (run.offset < size) {
            uint64_t want = uint64_t(run.nPages) * run.pageLen;
            run.bytes = std::min(want, size - run.offset);
            for (unsigned i = 0; i < run.nPages; ++i) {
                uint64_t base = uint64_t(i) * run.pageLen;
                if (base >= run.bytes)
                    break;
                node->content->readAt(run.offset + base,
                                      std::min(run.pageLen,
                                               run.bytes - base),
                                      run.dsts[i]);
            }
        }
        total += run.bytes;
        spans[r] = {run.offset, run.bytes};
    }
    if (total == 0)
        return {Status::Ok, 0, ready};
    // All runs, one gathered preadv charge.
    Time done =
        charge ? pageCache.chargeReadv(ino, spans.data(), n, ready, io_path)
               : ready;
    return {Status::Ok, total, done};
}

IoResult
HostFs::pwritev(int fd, const WriteRun *runs, unsigned n, Time ready,
                sim::Resource *io_path)
{
    return pwritevImpl(fd, runs, n, ready, io_path, true);
}

IoResult
HostFs::pwritevUncached(int fd, const WriteRun *runs, unsigned n,
                        Time ready)
{
    return pwritevImpl(fd, runs, n, ready, nullptr, false);
}

IoResult
HostFs::pwritevImpl(int fd, const WriteRun *runs, unsigned n, Time ready,
                    sim::Resource *io_path, bool charge)
{
    uint32_t flags;
    auto node = lookupFd(fd, &flags);
    if (!node)
        return {Status::BadFd, 0, ready};
    if ((flags & O_ACCMODE_F) == O_RDONLY_F)
        return {Status::ReadOnlyFile, 0, ready};
    if (sim.faults.crashed() || sim.faults.takeFault(sim::FaultOp::HostWrite))
        return {Status::IoError, 0, ready};
    if (n && sim.faults.takeShortWrite()) {
        // Transient short write: only a prefix lands (the first run,
        // or half of a single run). The caller sees IoError with the
        // partial byte count and retries the whole vector.
        uint64_t len0 = n > 1 ? runs[0].len : runs[0].len / 2;
        if (len0) {
            capturePreImage(node, runs[0].offset, len0);
            node->content->writeAt(runs[0].offset, len0, runs[0].data);
            std::lock_guard<std::mutex> lock(mtx);
            node->size = std::max(node->size, runs[0].offset + len0);
            node->version++;
        }
        return {Status::IoError, len0, ready};
    }
    uint64_t total = 0;
    uint64_t max_end = 0;
    std::vector<IoSpan> spans(n);
    for (unsigned r = 0; r < n; ++r) {
        if (sim.faults.hitCrashPoint(sim::CrashPoint::MidPwritev))
            return tornWrite(node, runs, r, ready);
        if (runs[r].len) {
            capturePreImage(node, runs[r].offset, runs[r].len);
            if (!node->content->writeAt(runs[r].offset, runs[r].len,
                                        runs[r].data)) {
                return {Status::ReadOnlyFile, total, ready};
            }
        }
        total += runs[r].len;
        max_end = std::max(max_end, runs[r].offset + runs[r].len);
        spans[r] = {runs[r].offset, runs[r].len};
    }
    if (total == 0)
        return {Status::Ok, 0, ready};
    uint64_t ino;
    uint64_t ver;
    {
        std::lock_guard<std::mutex> lock(mtx);
        node->size = std::max(node->size, max_end);
        node->version++;    // one gathered write, one version step
        ino = node->ino;
        ver = node->version;
    }
    if (sim.faults.hitCrashPoint(sim::CrashPoint::AfterWriteback)) {
        // Write-back landed in the (volatile) page cache; power died
        // before any fsync. The whole call's pre-images revert.
        powerLoss();
        return {Status::IoError, total, ready};
    }
    Time done =
        charge ? pageCache.chargeWritev(ino, spans.data(), n, ready,
                                        io_path)
               : ready;
    return {Status::Ok, total, done, ver};
}

/** Crash point "mid-pwritev after k of n runs": runs [0, r) of this
 *  call made it to stable media, run r itself tears in half, and every
 *  write not covered by an fsync — including this call's later runs —
 *  is lost. The torn state the journal exists to make unobservable. */
IoResult
HostFs::tornWrite(const std::shared_ptr<Inode> &node, const WriteRun *runs,
                  unsigned r, Time ready)
{
    std::vector<IoSpan> durable(r);
    uint64_t landed = 0;
    uint64_t end = 0;
    for (unsigned i = 0; i < r; ++i) {
        durable[i] = {runs[i].offset, runs[i].len};
        landed += runs[i].len;
        end = std::max(end, runs[i].offset + runs[i].len);
    }
    if (r)
        markDurable(node->ino, durable.data(), r);
    powerLoss();
    uint64_t half = runs[r].len / 2;
    if (half) {
        node->content->writeAt(runs[r].offset, half, runs[r].data);
        end = std::max(end, runs[r].offset + half);
    }
    if (end) {
        std::lock_guard<std::mutex> lock(mtx);
        node->size = std::max(node->size, end);
        node->version++;
    }
    return {Status::IoError, landed + half, ready};
}

IoResult
HostFs::pwrite(int fd, const uint8_t *src, uint64_t len, uint64_t offset,
               Time ready, sim::Resource *io_path)
{
    uint32_t flags;
    auto node = lookupFd(fd, &flags);
    if (!node)
        return {Status::BadFd, 0, ready};
    if ((flags & O_ACCMODE_F) == O_RDONLY_F)
        return {Status::ReadOnlyFile, 0, ready};
    if (sim.faults.crashed() || sim.faults.takeFault(sim::FaultOp::HostWrite))
        return {Status::IoError, 0, ready};
    // No crash points here: pwrite is also the journal-append path,
    // whose own torn states are modeled by MidJournalAppend.
    capturePreImage(node, offset, len);
    if (!node->content->writeAt(offset, len, src))
        return {Status::ReadOnlyFile, 0, ready};
    uint64_t ino;
    uint64_t ver;
    {
        std::lock_guard<std::mutex> lock(mtx);
        node->size = std::max(node->size, offset + len);
        node->version++;
        ino = node->ino;
        ver = node->version;
    }
    IoSpan span{offset, len};
    return {Status::Ok, len,
            pageCache.chargeWritev(ino, &span, 1, ready, io_path), ver};
}

IoResult
HostFs::fsync(int fd, Time ready)
{
    return fsyncImpl(fd, ready, true);
}

IoResult
HostFs::fsyncUncached(int fd, Time ready)
{
    return fsyncImpl(fd, ready, false);
}

IoResult
HostFs::fsyncImpl(int fd, Time ready, bool charge)
{
    auto node = lookupFd(fd, nullptr);
    if (!node)
        return {Status::BadFd, 0, ready};
    if (sim.faults.crashed() || sim.faults.takeFault(sim::FaultOp::HostFsync))
        return {Status::IoError, 0, ready};
    uint64_t ino;
    {
        std::lock_guard<std::mutex> lock(mtx);
        ino = node->ino;
    }
    if (sim.faults.active())
        markDurable(ino, nullptr, 0);   // everything on this ino is durable
    return {Status::Ok, 0, charge ? pageCache.chargeSync(ino, ready) : ready};
}

Status
HostFs::ftruncate(int fd, uint64_t new_size)
{
    uint32_t flags;
    auto node = lookupFd(fd, &flags);
    if (!node)
        return Status::BadFd;
    if ((flags & O_ACCMODE_F) == O_RDONLY_F)
        return Status::ReadOnlyFile;
    std::lock_guard<std::mutex> lock(mtx);
    if (auto *mem = dynamic_cast<InMemoryContent *>(node->content.get()))
        mem->truncate(new_size);
    node->size = new_size;
    node->version++;
    pageCache.dropFile(node->ino);
    return Status::Ok;
}

Status
HostFs::unlink(const std::string &path)
{
    std::lock_guard<std::mutex> lock(mtx);
    auto it = names.find(path);
    if (it == names.end())
        return Status::NoEnt;
    it->second->nlink = 0;
    it->second->version++;
    pageCache.dropFile(it->second->ino);
    names.erase(it);
    return Status::Ok;
}

Status
HostFs::stat(const std::string &path, FileInfo *out)
{
    std::lock_guard<std::mutex> lock(mtx);
    auto it = names.find(path);
    if (it == names.end())
        return Status::NoEnt;
    if (out)
        *out = {it->second->ino, it->second->size, it->second->version};
    return Status::Ok;
}

Status
HostFs::fstat(int fd, FileInfo *out)
{
    std::lock_guard<std::mutex> lock(mtx);
    auto it = fds.find(fd);
    if (it == fds.end())
        return Status::BadFd;
    const auto &node = it->second.inode;
    if (out)
        *out = {node->ino, node->size, node->version};
    return Status::Ok;
}

size_t
HostFs::openCount() const
{
    std::lock_guard<std::mutex> lock(mtx);
    return fds.size();
}

// ---- fault injection / crash simulation ----

std::shared_ptr<HostFs::Inode>
HostFs::lookupIno(uint64_t ino)
{
    std::lock_guard<std::mutex> lock(mtx);
    for (auto &kv : names)
        if (kv.second->ino == ino)
            return kv.second;
    return nullptr;
}

void
HostFs::capturePreImage(const std::shared_ptr<Inode> &node, uint64_t offset,
                        uint64_t len)
{
    if (!sim.faults.crashArmed() || len == 0)
        return;
    VolatileWrite v;
    v.node = node;
    v.offset = offset;
    v.oldData.assign(len, 0);
    {
        std::lock_guard<std::mutex> lock(mtx);
        v.ino = node->ino;
        v.prevSize = node->size;
        v.prevVersion = node->version;
    }
    // Bytes past the old EOF restore as zeros (InMemoryContent grows
    // zero-filled), so a reverted extending write leaves no residue.
    uint64_t readable =
        v.prevSize > offset ? std::min(len, v.prevSize - offset) : 0;
    if (readable)
        node->content->readAt(offset, readable, v.oldData.data());
    std::lock_guard<std::mutex> lk(vlogMtx);
    vlog.push_back(std::move(v));
}

void
HostFs::markDurable(uint64_t ino, const IoSpan *spans, unsigned n)
{
    std::lock_guard<std::mutex> lk(vlogMtx);
    auto covered = [&](const VolatileWrite &v) {
        if (v.ino != ino)
            return false;
        if (!spans)
            return true;    // fsync: everything on this inode
        for (unsigned i = 0; i < n; ++i) {
            // Any overlap promotes the whole record: one captured
            // write run is the flush unit (slight over-durability on
            // partial overlap, never under-durability).
            uint64_t a0 = v.offset, a1 = v.offset + v.oldData.size();
            uint64_t b0 = spans[i].offset, b1 = b0 + spans[i].len;
            if (a0 < b1 && b0 < a1)
                return true;
        }
        return false;
    };
    vlog.erase(std::remove_if(vlog.begin(), vlog.end(), covered), vlog.end());
}

bool
HostFs::maybeCrash(sim::CrashPoint cp, uint64_t ino,
                   const IoSpan *durable_spans, unsigned n)
{
    if (!sim.faults.hitCrashPoint(cp))
        return false;
    if (n)
        markDurable(ino, durable_spans, n);
    powerLoss();
    return true;
}

void
HostFs::powerLoss()
{
    std::vector<VolatileWrite> lost;
    {
        std::lock_guard<std::mutex> lk(vlogMtx);
        lost.swap(vlog);
    }
    // Revert newest first so overlapping writes unwind to the oldest
    // durable state; sizes and versions roll back with the earliest
    // record per inode (applied last).
    for (auto it = lost.rbegin(); it != lost.rend(); ++it) {
        it->node->content->writeAt(it->offset, it->oldData.size(),
                                   it->oldData.data());
        std::lock_guard<std::mutex> lock(mtx);
        it->node->size = it->prevSize;
        it->node->version = it->prevVersion;
    }
    pageCache.dropAll();
}

// ---- recovery (journal replay after a crash) ----

Status
HostFs::replayExtent(uint64_t ino, uint64_t offset, const uint8_t *data,
                     uint64_t len)
{
    auto node = lookupIno(ino);
    if (!node)
        return Status::NoEnt;
    if (len && !node->content->writeAt(offset, len, data))
        return Status::ReadOnlyFile;
    std::lock_guard<std::mutex> lock(mtx);
    node->size = std::max(node->size, offset + len);
    node->version++;
    return Status::Ok;
}

Time
HostFs::fsyncIno(uint64_t ino, Time ready)
{
    if (sim.faults.active())
        markDurable(ino, nullptr, 0);
    return pageCache.chargeSync(ino, ready);
}

} // namespace hostfs
} // namespace gpufs
