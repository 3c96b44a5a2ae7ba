#include "rpc/daemon.hh"

#include <algorithm>
#include <cstring>
#include <string>

#include "base/logging.hh"
#include "gpufs/victim.hh"

namespace gpufs {
namespace rpc {

CpuDaemon::CpuDaemon(hostfs::HostFs &host_fs,
                     consistency::ConsistencyMgr &mgr)
    : fs(host_fs), consistency(mgr), stats_("cpu_daemon"),
      requestsServed(stats_.counter("requests_served")),
      bytesToGpu(stats_.counter("bytes_to_gpu")),
      bytesFromGpu(stats_.counter("bytes_from_gpu")),
      bytesPeer(stats_.counter("bytes_peer_to_peer")),
      peerReadRpcs(stats_.counter("peer_read_rpcs")),
      peerPagesForwarded(stats_.counter("peer_pages_forwarded")),
      peerPagesHost(stats_.counter("peer_pages_host_fallback")),
      peerWriteRpcs(stats_.counter("peer_write_rpcs")),
      peerExtentsMirrored(stats_.counter("peer_extents_mirrored")),
      raPagesFetched(stats_.counter("ra_pages_fetched")),
      coalescedRpcs(stats_.counter("coalesced_rpcs")),
      hostReadCalls(stats_.counter("host_read_calls")),
      ioRetries(stats_.counter("io_retries")),
      ioRetryGiveups(stats_.counter("io_retry_giveups")),
      journalCommits(stats_.counter("journal_commits")),
      journalCommitBarriers(stats_.counter("journal_commit_barriers")),
      journalTxnsReplayed(stats_.counter("journal_txns_replayed")),
      journalTornRecords(stats_.counter("journal_torn_records")),
      journalCheckpoints(stats_.counter("journal_checkpoints")),
      journalGroupSyncs(stats_.counter("journal_group_syncs")),
      peerPagesAdopted(stats_.counter("peer_pages_adopted"))
{
    for (unsigned t = 0; t < core::kMaxTenants; ++t) {
        tenantRpcs[t] =
            &stats_.counter("tenant" + std::to_string(t) + "_rpcs");
    }
    backend_ = storage::makeStorageBackend(storage::BackendKind::Buffered,
                                           fs, stats_);
}

void
CpuDaemon::setTenantWeights(const unsigned *weights, unsigned n)
{
    gpufs_assert(!running.load(), "setTenantWeights after start");
    drr_ = false;
    for (unsigned t = 0; t < core::kMaxTenants; ++t) {
        tenantWeight_[t] = t < n ? weights[t] : 0;
        if (tenantWeight_[t] != 0)
            drr_ = true;
    }
}

void
CpuDaemon::setStorageBackend(storage::BackendKind kind)
{
    gpufs_assert(!running.load(), "setStorageBackend after start");
    backend_ = storage::makeStorageBackend(kind, fs, stats_);
}

void
CpuDaemon::setVictimCache(core::VictimCache *v)
{
    gpufs_assert(!running.load(), "setVictimCache after start");
    victim_ = v;
}

namespace {

/** Bounded retry with exponential backoff for transient host-I/O
 *  faults (injected EIO, short writes): re-issue with the virtual
 *  clock pushed back 40/80/160us before giving up and letting the
 *  error IoResult complete the RPC. Never retries once the host has
 *  crashed — a dead backing store is not transient. */
constexpr unsigned kMaxIoRetries = 3;
constexpr Time kIoRetryBackoff = 20000;  // 20us, doubling per attempt

/**
 * O_GWRONCE: the pristine copy is implicitly all zeros, so the
 * locally-modified bytes are exactly the non-zero ones. Append maximal
 * non-zero runs of [data, data+len) (landing at file offset @p off) so
 * concurrent writers to other regions of the same page are not
 * reverted (§3.1).
 */
void
appendZeroDiffRuns(std::vector<hostfs::WriteRun> &runs, uint64_t off,
                   const uint8_t *data, uint64_t len)
{
    uint64_t i = 0;
    while (i < len) {
        while (i < len && data[i] == 0)
            ++i;
        uint64_t run = i;
        while (run < len && data[run] != 0)
            ++run;
        if (run > i)
            runs.push_back({off + i, run - i, data + i});
        i = run;
    }
}

/** A write op whose payload is well formed: a batched op carries
 *  1..kMaxBatchPages extents, and a peer write names its page size. */
bool
wellFormedWrite(const RpcRequest &req)
{
    switch (req.op) {
      case RpcOp::WriteBack:
        return true;
      case RpcOp::PeerWritePages:
        if (req.pageLen == 0)
            return false;
        [[fallthrough]];
      case RpcOp::WritePages:
        return req.pageCount > 0 && req.pageCount <= kMaxBatchPages;
      default:
        return false;
    }
}

/**
 * The host write runs of a write-op request (empty for anything else
 * or a malformed batch): each non-empty extent, split into its
 * non-zero runs under O_GWRONCE. The sweep's journal preflight and
 * applyWrites both build runs here, so the journal records exactly the
 * bytes that land in place.
 */
std::vector<hostfs::WriteRun>
writeRunsOf(const RpcRequest &req)
{
    std::vector<hostfs::WriteRun> runs;
    if (!wellFormedWrite(req))
        return runs;
    auto add = [&](uint64_t off, const uint8_t *data, uint64_t len) {
        if (len == 0)
            return;
        if (req.diffAgainstZeros)
            appendZeroDiffRuns(runs, off, data, len);
        else
            runs.push_back({off, len, data});
    };
    if (req.op == RpcOp::WriteBack) {
        add(req.offset, req.data, req.len);
    } else {
        for (unsigned i = 0; i < req.pageCount; ++i)
            add(req.batchOff[i], req.batch[i], req.batchLen[i]);
    }
    return runs;
}

} // namespace

template <typename Fn>
hostfs::IoResult
CpuDaemon::retryIo(Fn &&fn)
{
    hostfs::IoResult r = fn(Time(0));
    for (unsigned attempt = 1; r.status == Status::IoError &&
         attempt <= kMaxIoRetries && !fs.crashed(); ++attempt) {
        ioRetries.inc();
        r = fn(kIoRetryBackoff << attempt);
    }
    if (r.status == Status::IoError)
        ioRetryGiveups.inc();
    return r;
}

void
CpuDaemon::enableJournal()
{
    gpufs_assert(!running.load(), "enableJournal after start");
    if (!journal_)
        journal_ = std::make_unique<hostfs::WriteJournal>(fs);
}

bool
CpuDaemon::durableFd(int fd, uint64_t *ino_out)
{
    std::lock_guard<std::mutex> lock(claimMtx);
    auto it = fdClaims.find(fd);
    if (it == fdClaims.end())
        return false;
    if (ino_out)
        *ino_out = it->second.ino;
    return it->second.durable;
}

Status
CpuDaemon::maybeJournal(int fd, const hostfs::WriteRun *runs, unsigned n,
                        Time &t, sim::Resource *io, bool &journaled)
{
    if (!journal_)
        return Status::Ok;
    uint64_t ino = 0;
    if (!durableFd(fd, &ino))
        return Status::Ok;
    if (slotPrejournaled_) {
        // Group commit fast path: the sweep preflight already appended
        // this txn and made it durable with the sweep's ONE groupSync,
        // so the WAL rule (commit durable before the in-place write)
        // holds without a per-RPC fsync here.
        slotPrejournaled_ = false;
        t = std::max(t, slotPrejournalTime_);
    } else {
        // Fallback (preflight append failed or was skipped): per-RPC
        // append + fsync. The sync cannot be deferred to the sweep's
        // end — a crash reverts un-fsynced journal records, so an
        // in-place write issued before the sync would be unrecoverable
        // if torn.
        const Time base = t;
        hostfs::IoResult j = retryIo([&](Time backoff) {
            return journal_->append(ino, runs, n, base + backoff, io);
        });
        if (!ok(j.status))
            return j.status;
        hostfs::IoResult s = retryIo([&](Time backoff) {
            return journal_->groupSync(j.done + backoff);
        });
        if (!ok(s.status))
            return s.status;
        journalGroupSyncs.inc();
        t = s.done;
    }
    journalCommits.inc();
    journalUnapplied_.fetch_add(1, std::memory_order_relaxed);
    journaled = true;
    // Crash point "commit durable, in-place write never ran": exactly
    // the window recovery's replay exists for.
    if (fs.maybeCrash(sim::CrashPoint::AfterJournalCommit))
        return Status::IoError;
    return Status::Ok;
}

Status
CpuDaemon::flushJournalSync()
{
    // Never after a crash: the appended records then belong to
    // recovery's replay, and fsyncing a dead store is not transient.
    if (!journal_ || !journal_->syncPending() || fs.crashed())
        return Status::Ok;
    hostfs::IoResult s = retryIo(
        [&](Time backoff) { return journal_->groupSync(backoff); });
    if (!ok(s.status))
        return s.status;
    journalGroupSyncs.inc();
    return Status::Ok;
}

void
CpuDaemon::prejournalSweep(unsigned port_idx, RpcSlot **all,
                           unsigned total)
{
    if (!journal_ || fs.crashed())
        return;
    auto &sim = ports[port_idx]->dev->simContext();
    bool appended = false;
    for (unsigned s = 0; s < total; ++s) {
        const RpcRequest &req = all[s]->req;
        // The staging bytes are already host-visible when the slot is
        // claimed; only the D2H DMA's virtual-time charge happens later
        // in applyWrites.
        std::vector<hostfs::WriteRun> runs = writeRunsOf(req);
        uint64_t ino = 0;
        if (runs.empty() || !durableFd(req.hostFd, &ino))
            continue;
        hostfs::IoResult j = retryIo([&](Time backoff) {
            return journal_->append(ino, runs.data(),
                                    static_cast<unsigned>(runs.size()),
                                    req.issueTime + backoff, &sim.cpuIo);
        });
        if (!ok(j.status))
            continue; // handler's maybeJournal falls back per-RPC
        prejournalDone_[all[s]] = j.done;
        appended = true;
    }
    if (!appended)
        return;
    hostfs::IoResult gs = retryIo(
        [&](Time backoff) { return journal_->groupSync(backoff); });
    if (!ok(gs.status) || fs.crashed()) {
        // The group fsync failed (or a crash fired mid-preflight): the
        // appends are NOT durable, so the handlers must not treat them
        // as committed — drop the records and let maybeJournal's
        // per-RPC fallback re-establish the WAL ordering (or surface
        // the error).
        prejournalDone_.clear();
        return;
    }
    journalGroupSyncs.inc();
    // Propagate the sync-durable time into every preflighted slot so
    // resp.done never claims completion before its commit was durable.
    for (auto &e : prejournalDone_)
        e.second = std::max(e.second, gs.done);
}

CpuDaemon::~CpuDaemon()
{
    stop();
}

RpcQueue &
CpuDaemon::attachGpu(gpu::GpuDevice &dev)
{
    gpufs_assert(!running.load(), "attachGpu after start");
    auto port = std::make_unique<GpuPort>();
    port->dev = &dev;
    port->queue = std::make_unique<RpcQueue>(doorbell);
    ports.push_back(std::move(port));
    return *ports.back()->queue;
}

void
CpuDaemon::setPeerSource(unsigned gpu_id, PeerPageSource *src)
{
    if (gpu_id < ports.size())
        ports[gpu_id]->peerSource.store(src, std::memory_order_release);
}

void
CpuDaemon::start()
{
    gpufs_assert(!running.load(), "daemon already running");
    if (journal_) {
        // Crash recovery: replay committed-but-possibly-unapplied
        // write-back txns, discard the torn tail, truncate the journal.
        hostfs::RecoveryStats rs = journal_->recover(0);
        journalTxnsReplayed.inc(rs.txnsReplayed);
        journalTornRecords.inc(rs.tornRecords);
    }
    running.store(true);
    worker = std::thread([this] { loop(); });
}

void
CpuDaemon::stop()
{
    if (!running.exchange(false))
        return;
    doorbell.fetch_add(1);
    doorbell.notify_one();
    if (worker.joinable())
        worker.join();
    // Clean-shutdown checkpoint: every committed txn has been applied
    // in place, so the journal's history is dead weight — flush the
    // covered files and truncate it so the next start() skips replay.
    // Never after a crash (recovery needs the records) and never with
    // a committed-but-unapplied txn outstanding (truncating it would
    // lose the bytes replay exists to restore).
    if (journal_ && !fs.crashed() &&
        journalUnapplied_.load(std::memory_order_acquire) == 0 &&
        journal_->tailOffset() > 0) {
        journal_->checkpoint(0);
        journalCheckpoints.inc();
    }
    // Publish each queue's slot-pressure high-water marks into the
    // StatSet so post-run reports see them next to the service counts.
    for (unsigned i = 0; i < ports.size(); ++i) {
        const std::string prefix = "gpu" + std::to_string(i);
        uint64_t stalls = ports[i]->queue->fullQueueStalls();
        uint64_t subs = ports[i]->queue->submissions();
        stats_.counter(prefix + "_max_inflight_slots")
            .maxWith(ports[i]->queue->maxInFlightSlots());
        stats_.counter(prefix + "_full_queue_stalls").maxWith(stalls);
        stats_.counter(prefix + "_submissions").maxWith(subs);
        stats_.counter(prefix + "_doorbell_rings_suppressed")
            .maxWith(ports[i]->queue->doorbellRingsSuppressed());
        // Doorbell-coalescing decision signal (ROADMAP "RPC slot
        // scaling"): submitters stalling on a full slot array more
        // than ~1% of the time means kQueueSlots, not the daemon, is
        // the bottleneck. Judge THIS report interval's delta — the
        // queue counters are cumulative across start/stop cycles, and
        // re-judging history would re-warn forever on one bad early
        // interval — and warn only on the rising edge of a crossing.
        uint64_t d_stalls = stalls - ports[i]->lastStalls;
        uint64_t d_subs = subs - ports[i]->lastSubs;
        ports[i]->lastStalls = stalls;
        ports[i]->lastSubs = subs;
        bool stalled = d_stalls > 0 && d_stalls * 100 > d_subs;
        if (stalled && !ports[i]->stallWarned) {
            gpufs_warn("gpu%u RPC queue: %llu full-queue stalls over "
                       "%llu submissions this interval (>1%%) — "
                       "consider more slots",
                       i, static_cast<unsigned long long>(d_stalls),
                       static_cast<unsigned long long>(d_subs));
        }
        ports[i]->stallWarned = stalled;
    }
}

void
CpuDaemon::loop()
{
    uint64_t seen = doorbell.load(std::memory_order_acquire);
    while (running.load(std::memory_order_acquire)) {
        bool any = false;
        // Event loop: sweep every GPU's queue, claim everything that
        // is ready, and service the sweep's claims in issue-time order
        // — with split-phase submission one block may have several
        // slots outstanding, and servicing them in slot-array order
        // would reserve the serialized CPU timeline acausally. Each
        // slot still completes individually the moment it is serviced
        // (out-of-order delivery relative to submission).
        for (unsigned i = 0; i < ports.size(); ++i) {
            RpcSlot *batch[kQueueSlots];
            unsigned n;
            while ((n = ports[i]->queue->pollAll(batch, kQueueSlots))
                   > 0) {
                serviceSweep(i, batch, n);
                any = true;
            }
        }
        if (!any) {
            // Nothing ready: park on the doorbell (simulated poll).
            uint64_t cur = doorbell.load(std::memory_order_acquire);
            if (cur == seen)
                doorbell.wait(cur, std::memory_order_acquire);
            seen = doorbell.load(std::memory_order_acquire);
        }
    }
    // Drain: fail requests that raced with shutdown so no GPU block
    // waits forever.
    for (auto &port : ports) {
        RpcSlot *batch[kQueueSlots];
        unsigned n;
        while ((n = port->queue->pollAll(batch, kQueueSlots)) > 0) {
            for (unsigned i = 0; i < n; ++i) {
                RpcResponse resp;
                resp.status = Status::IoError;
                resp.done = batch[i]->req.issueTime;
                RpcQueue::complete(*batch[i], resp);
            }
        }
    }
}

void
CpuDaemon::serviceSweep(unsigned port_idx, RpcSlot **batch, unsigned n)
{
    GpuPort &port = *ports[port_idx];
    std::sort(batch, batch + n,
              [](const RpcSlot *a, const RpcSlot *b) {
                  return a->req.issueTime < b->req.issueTime;
              });
    // Serving tier: with weights configured and several tenants in the
    // sweep, re-emit in weighted deficit-round-robin order so a scan
    // tenant's deep batches reserve the serialized CPU timeline AFTER
    // the point tenants' slots instead of ahead of them.
    drrOrder(port, batch, n);
    // Group commit: append every write-op slot's journal txn and make
    // them durable with ONE fsync before any handler's in-place write
    // runs (see prejournalSweep for the WAL ordering argument).
    prejournalSweep(port_idx, batch, n);
    // Cross-block RPC aggregation: the burst a coalesced doorbell
    // delivered as one sweep usually carries many blocks' ReadPages
    // on the SAME file (a shared scan) — serve each same-file set with
    // one servePages call (one gathered storage read) instead of k.
    // Groups are serviced at their first member's place in the
    // emission order; everything else keeps the plain per-slot path.
    bool taken[kQueueSlots] = {};
    for (unsigned s = 0; s < n; ++s) {
        if (taken[s])
            continue;
        RpcSlot *group[kQueueSlots];
        unsigned k = 0;
        const RpcRequest &req = batch[s]->req;
        auto groupable = [&](const RpcRequest &r) {
            return r.op == RpcOp::ReadPages && r.hostFd == req.hostFd &&
                r.pageCount > 0 && r.pageCount <= kMaxBatchPages;
        };
        if (groupable(req)) {
            group[k++] = batch[s];
            for (unsigned t = s + 1; t < n; ++t) {
                if (!taken[t] && groupable(batch[t]->req)) {
                    group[k++] = batch[t];
                    taken[t] = true;
                }
            }
        }
        if (k >= 2) {
            // One daemon action for the whole group: the shared
            // CPU-overhead reservation starts once the LAST member's
            // request has crossed the queue — k requests, ONE
            // rpcCpuOverhead instead of k.
            auto &sim = port.dev->simContext();
            const RpcRequest *reqs[kQueueSlots];
            Time ready = 0;
            for (unsigned m = 0; m < k; ++m) {
                reqs[m] = &group[m]->req;
                ready = std::max(ready, reqs[m]->issueTime);
            }
            Time t0 = sim.cpuIo.reserve(ready + sim.params.rpcSubmitLat,
                                        sim.params.rpcCpuOverhead).end;
            std::vector<RpcResponse> resps(k);
            if (ok(servePages(*port.dev, reqs, k, t0, resps.data()))) {
                coalescedRpcs.inc(k - 1);
            } else {
                // Gathered read refused (stale fd raced a close, or a
                // host fault outlived the retry budget): serve each
                // member alone so per-slot status stays exact — a
                // member that still fails completes with its error and
                // the requesting GPU restores the frames it claimed.
                for (unsigned m = 0; m < k; ++m)
                    resps[m] = handle(port_idx, *reqs[m]);
            }
            // Count before completing: a completed slot may be reused
            // by its submitter at once.
            for (unsigned m = 0; m < k; ++m) {
                tenantRpcs[reqs[m]->tenant % core::kMaxTenants]->inc();
                RpcQueue::complete(*group[m], resps[m]);
            }
            requestsServed.inc(k);
        } else {
            auto pj = prejournalDone_.find(batch[s]);
            if (pj != prejournalDone_.end()) {
                slotPrejournaled_ = true;
                slotPrejournalTime_ = pj->second;
                prejournalDone_.erase(pj);
            }
            RpcResponse resp = handle(port_idx, req);
            slotPrejournaled_ = false;
            tenantRpcs[req.tenant % core::kMaxTenants]->inc();
            RpcQueue::complete(*batch[s], resp);
            requestsServed.inc();
        }
    }
    // Belt and braces: a per-RPC fallback append syncs inline, so
    // nothing should be pending here — but never leave a sweep with
    // un-synced journal records (a later in-place write would outrun
    // them).
    flushJournalSync();
}

void
CpuDaemon::drrOrder(GpuPort &port, RpcSlot **batch, unsigned n)
{
    if (!drr_ || n < 2)
        return;
    // Stable partition into per-tenant sublists, so each tenant's own
    // requests keep their issue-time order.
    std::vector<RpcSlot *> per[core::kMaxTenants];
    unsigned present = 0;
    for (unsigned i = 0; i < n; ++i) {
        uint8_t t = batch[i]->req.tenant % core::kMaxTenants;
        if (per[t].empty())
            ++present;
        per[t].push_back(batch[i]);
    }
    if (present < 2)
        return;
    // DRR emission: each round credits every backlogged tenant its
    // weight and emits requests while the deficit covers their page
    // cost — a 16-page scan batch needs 16 credits, a point lookup 1,
    // so light tenants drain ahead of a heavy tenant's backlog in
    // proportion to weight. Rounds repeat until the sweep drains
    // (every request IS serviced — DRR shapes order, never drops).
    unsigned head[core::kMaxTenants] = {};
    unsigned emitted = 0;
    while (emitted < n) {
        for (unsigned t = 0; t < core::kMaxTenants; ++t) {
            if (head[t] >= per[t].size())
                continue;
            port.drrDeficit[t] +=
                tenantWeight_[t] != 0 ? tenantWeight_[t] : 1;
            while (head[t] < per[t].size()) {
                const RpcRequest &r = per[t][head[t]]->req;
                uint64_t cost = r.pageCount != 0 ? r.pageCount : 1;
                if (port.drrDeficit[t] < cost)
                    break;
                port.drrDeficit[t] -= cost;
                batch[emitted++] = per[t][head[t]++];
            }
        }
    }
    // Classic DRR empty-queue rule: a drained tenant banks no credit
    // (every tenant drains within the sweep, so deficits stay bounded
    // by one request's cost).
    for (unsigned t = 0; t < core::kMaxTenants; ++t) {
        if (!per[t].empty())
            port.drrDeficit[t] = 0;
    }
}

RpcResponse
CpuDaemon::handle(unsigned port_idx, const RpcRequest &req)
{
    gpu::GpuDevice &dev = *ports[port_idx]->dev;
    auto &sim = dev.simContext();
    const auto &p = sim.params;

    // Every request pays queue-submit latency plus the daemon's
    // per-request handling on the (single) host CPU it is pinned to.
    Time ready = req.issueTime + p.rpcSubmitLat;
    Time t0 = sim.cpuIo.reserve(ready, p.rpcCpuOverhead).end;

    // Metadata ops complete with the CPU slot; data ops set their own.
    RpcResponse resp;
    resp.done = t0;
    switch (req.op) {
      case RpcOp::Open:
        handleOpen(dev, req, resp);
        break;
      case RpcOp::Close:
        handleClose(dev, req, resp);
        break;
      case RpcOp::ReadPage:
      case RpcOp::ReadPages:
      case RpcOp::PeerReadPages: {
        const RpcRequest *one = &req;
        servePages(dev, &one, 1, t0, &resp);
        break;
      }
      case RpcOp::WriteBack:
      case RpcOp::WritePages:
      case RpcOp::PeerWritePages:
        resp = applyWrites(dev, req, t0);
        break;
      case RpcOp::Fsync: {
        uint64_t ino = 0;
        if (req.durableBarrier && journal_ && durableFd(req.hostFd, &ino)) {
            // gmsync barrier on a journaled file: the commit record IS
            // the durability point — force the sweep's group commit
            // out first (same-sweep appends must be covered), then
            // answer from the commit record. No data-file fsync.
            journalCommitBarriers.inc();
            resp.status = flushJournalSync();
            if (ok(resp.status))
                resp.done = std::max(t0, journal_->lastCommitDone(ino));
        } else {
            hostfs::IoResult r = retryIo([&](Time backoff) {
                return backend_->sync(req.hostFd, t0 + backoff, dev.id());
            });
            resp.status = r.status;
            resp.done = r.done;
        }
        break;
      }
      case RpcOp::Truncate: {
        resp.status = fs.ftruncate(req.hostFd, req.offset);
        if (ok(resp.status)) {
            hostfs::FileInfo info;
            if (ok(fs.fstat(req.hostFd, &info))) {
                resp.size = info.size;
                resp.version = info.version;
            }
        }
        break;
      }
      case RpcOp::Unlink: {
        hostfs::FileInfo info;
        if (ok(fs.stat(req.path, &info))) {
            consistency.dropFile(info.ino);
            if (victim_)
                victim_->dropFile(info.ino);
        }
        resp.status = fs.unlink(req.path);
        break;
      }
      case RpcOp::Stat: {
        hostfs::FileInfo info;
        resp.status = fs.stat(req.path, &info);
        if (ok(resp.status)) {
            resp.ino = info.ino;
            resp.size = info.size;
            resp.version = info.version;
        }
        break;
      }
      case RpcOp::Nop:
        break;
    }
    return resp;
}

void
CpuDaemon::handleOpen(gpu::GpuDevice &dev, const RpcRequest &req,
                      RpcResponse &resp)
{
    Status st;
    int fd = fs.open(req.path, req.flags, &st);
    if (fd < 0) {
        resp.status = st;
        return;
    }
    hostfs::FileInfo info;
    fs.fstat(fd, &info);

    Status adm = consistency.acquireOpen(dev.id(), info.ino, req.wantsWrite,
                                         req.mergeableWriter);
    if (!ok(adm)) {
        fs.close(fd);
        resp.status = adm;
        return;
    }
    {
        std::lock_guard<std::mutex> lock(claimMtx);
        fdClaims[fd] = {info.ino, req.wantsWrite,
                        (req.flags & hostfs::O_GDURABLE_F) != 0};
    }
    resp.status = Status::Ok;
    resp.hostFd = fd;
    resp.ino = info.ino;
    resp.size = info.size;
    resp.version = info.version;
}

void
CpuDaemon::handleClose(gpu::GpuDevice &dev, const RpcRequest &req,
                       RpcResponse &resp)
{
    FdClaim claim{0, false, false};
    bool have_claim = false;
    {
        std::lock_guard<std::mutex> lock(claimMtx);
        auto it = fdClaims.find(req.hostFd);
        if (it != fdClaims.end()) {
            claim = it->second;
            have_claim = true;
            fdClaims.erase(it);
        }
    }
    if (have_claim)
        consistency.releaseOpen(dev.id(), claim.ino, claim.write);
    resp.status = fs.close(req.hostFd);
}

Time
CpuDaemon::chargePcie(gpu::GpuDevice &dev, PcieHop hop, uint64_t bytes,
                      Time ready)
{
    // Staging <-> GPU: one DMA reservation on this GPU's PCIe channel
    // for the direction. Functionally the host I/O already moved the
    // bytes (one copy in simulation).
    const auto &p = dev.simContext().params;
    const bool h2d = hop != PcieHop::GpuToStorage;
    (h2d ? bytesToGpu : bytesFromGpu).inc(bytes);
    // Zero-copy backends DMA storage bytes straight between storage
    // and the frame arena — the backend's charge already covered the
    // wire. Victim-tier bytes sit in pinned host RAM and cross PCIe
    // with any backend.
    if (bytes == 0 || !p.chargeDma ||
        (hop != PcieHop::VictimToGpu && backend_->directToGpu())) {
        return ready;
    }
    Time dur = p.dmaSetup
        + transferTime(bytes, h2d ? p.pcieBwH2DMBps : p.pcieBwD2HMBps);
    return (h2d ? dev.pcieH2D() : dev.pcieD2H()).reserve(ready, dur).end;
}

PeerPageSource *
CpuDaemon::peerSourceOf(const RpcRequest &req)
{
    if (req.peerGpu >= ports.size())
        return nullptr;
    return ports[req.peerGpu]->peerSource.load(std::memory_order_acquire);
}

Time
CpuDaemon::chargeP2pDma(gpu::GpuDevice &dev, unsigned src, unsigned dst,
                        uint64_t bytes, Time ready)
{
    auto &sim = dev.simContext();
    const auto &p = sim.params;
    bytesPeer.inc(bytes);
    if (bytes == 0 || !p.chargeDma)
        return ready;
    Time dur = p.p2pDmaSetup + transferTime(bytes, p.pcieP2PBwMBps);
    // One reservation per request on the pair's own channel: peer
    // transfers of different GPU pairs overlap instead of serializing
    // on the daemon's cpuIo path or the host PCIe links.
    return sim.p2p(src, dst).reserve(ready, dur).end;
}

Status
CpuDaemon::servePages(gpu::GpuDevice &dev, const RpcRequest *const *reqs,
                      unsigned k, Time t0, RpcResponse *resps)
{
    // Each request as pages (ReadPage is the one-page case), with the
    // per-page serve state the sources below fill in.
    struct Pages {
        uint8_t *const *dst = nullptr;
        unsigned n = 0;
        uint64_t plen = 0;
        PeerPageSource *owner = nullptr;
        unsigned forwarded = 0;
        bool fromVictim = false;
        bool fromStorage = false;
        bool served[kMaxBatchPages] = {};
        uint32_t valid[kMaxBatchPages] = {};
    };
    std::vector<Pages> pages(k);

    // Source 1, PeerReadPages only: the owner GPU's resident frames.
    // The copy itself is functional (the provider pins the owner frame
    // for its duration); the virtual cost is one P2P DMA covering the
    // served pages, ready no earlier than the latest source frame's
    // own DMA-completion time.
    for (unsigned m = 0; m < k; ++m) {
        const RpcRequest &req = *reqs[m];
        Pages &pg = pages[m];
        resps[m] = RpcResponse{};
        resps[m].done = t0;
        const bool one = req.op == RpcOp::ReadPage;
        const bool peer = req.op == RpcOp::PeerReadPages;
        pg.dst = one ? &req.data : req.batch;
        pg.n = one ? 1 : req.pageCount;
        pg.plen = one ? req.len : req.pageLen;
        if (pg.n == 0 || pg.n > kMaxBatchPages || (peer && pg.plen == 0)) {
            resps[m].status = Status::Inval;
            pg.n = 0;   // no source serves a malformed request
            continue;
        }
        if (req.speculative)
            raPagesFetched.inc(pg.n);
        if (!peer)
            continue;
        peerReadRpcs.inc();
        pg.owner = peerSourceOf(req);
        uint64_t p2p_bytes = 0;
        Time p2p_ready = t0;
        for (unsigned i = 0; pg.owner && i < pg.n; ++i) {
            if (pg.owner->peerCopyPage(req.ino, req.offset / pg.plen + i,
                                       req.version, pg.dst[i],
                                       &pg.valid[i], &p2p_ready)) {
                pg.served[i] = true;
                p2p_bytes += pg.plen;
                ++pg.forwarded;
            }
        }
        if (p2p_bytes > 0) {
            resps[m].done = chargeP2pDma(dev, req.peerGpu, req.gpuId,
                                         p2p_bytes, p2p_ready);
        }
    }

    // Source 2: the victim tier. A demotion-staged page at the host's
    // CURRENT version (one fstat — the k requests read one host file)
    // is served from host RAM; stale entries drop inside probe. Only
    // page-aligned requests probe, and only pages inside the file.
    uint64_t vc_bytes = 0;
    Time vc_ready = t0;
    hostfs::FileInfo info;
    if (victim_ && ok(fs.fstat(reqs[0]->hostFd, &info))) {
        for (unsigned m = 0; m < k; ++m) {
            const RpcRequest &req = *reqs[m];
            Pages &pg = pages[m];
            if (pg.plen == 0 || req.offset % pg.plen != 0)
                continue;
            for (unsigned i = 0; i < pg.n; ++i) {
                uint64_t off = req.offset + uint64_t(i) * pg.plen;
                if (pg.served[i] || off >= info.size)
                    continue;
                uint64_t expect = std::min(pg.plen, info.size - off);
                if (victim_->probe(info.ino, off / pg.plen, info.version,
                                   pg.dst[i], expect, &vc_ready)) {
                    pg.served[i] = true;
                    pg.valid[i] = static_cast<uint32_t>(expect);
                    pg.fromVictim = true;
                    vc_bytes += expect;
                }
            }
        }
    }

    // Source 3: storage. Every page still unserved goes out in ONE
    // gathered backend read — one run per contiguous gap of each
    // request (runs never fuse across requests: each seeks on its
    // own) — serialized on cpuIo. The per-request CPU overhead was
    // charged once by the caller, which is the point of batching.
    std::vector<hostfs::ReadRun> runs;
    std::vector<std::pair<unsigned, unsigned>> runAt;   // (request, page)
    for (unsigned m = 0; m < k; ++m) {
        const RpcRequest &req = *reqs[m];
        Pages &pg = pages[m];
        for (unsigned i = 0; i < pg.n;) {
            if (pg.served[i]) {
                ++i;
                continue;
            }
            unsigned j = i;
            while (j < pg.n && !pg.served[j])
                ++j;
            runs.push_back({req.offset + uint64_t(i) * pg.plen, &pg.dst[i],
                            j - i, pg.plen});
            runAt.push_back({m, i});
            pg.fromStorage = true;
            i = j;
        }
    }
    Time storage_done = t0;
    if (!runs.empty()) {
        const auto nruns = static_cast<unsigned>(runs.size());
        hostfs::IoResult r = retryIo([&](Time backoff) {
            return backend_->readRuns(reqs[0]->hostFd, runs.data(), nruns,
                                      t0 + backoff, dev.id());
        });
        hostReadCalls.inc();
        if (!ok(r.status)) {
            // A malformed request never reaches here: only a lone
            // request can be one, and it has no runs.
            for (unsigned m = 0; m < k; ++m) {
                resps[m].status = r.status;
                resps[m].done = std::max(resps[m].done, r.done);
            }
            return r.status;
        }
        for (unsigned x = 0; x < nruns; ++x) {
            const RpcRequest &req = *reqs[runAt[x].first];
            Pages &pg = pages[runAt[x].first];
            for (unsigned i = 0; i < runs[x].nPages; ++i) {
                const unsigned page = runAt[x].second + i;
                uint64_t base = uint64_t(i) * pg.plen;
                pg.valid[page] = static_cast<uint32_t>(
                    runs[x].bytes > base
                        ? std::min(pg.plen, runs[x].bytes - base) : 0);
                // Owner warming: the fallback read these bytes BECAUSE
                // the owner was cold — adopt them into the owner's
                // cache in the same RPC (best effort: try-locks, free
                // frames above the claim reserve, the faulting tenant
                // under its quota), so a repeat miss on the page
                // forwards peer-to-peer instead of paying the storage
                // round trip again.
                if (pg.owner && pg.valid[page] > 0 &&
                    pg.owner->peerAdoptPage(
                        req.ino, req.offset / pg.plen + page, req.version,
                        pg.dst[page], pg.valid[page], r.done, req.tenant)) {
                    peerPagesAdopted.inc();
                }
            }
        }
        storage_done = chargePcie(dev, PcieHop::StorageToGpu, r.bytes,
                                  r.done);
    }
    const Time vc_done = vc_bytes > 0
        ? chargePcie(dev, PcieHop::VictimToGpu, vc_bytes, vc_ready) : t0;

    // Each request completes when the sources that served ITS pages
    // have: a group member the victim tier covered does not wait for
    // the group's storage read. Valid bytes are contiguous from the
    // batch start (short pages only at EOF), so one total preserves
    // the ReadPages response contract.
    for (unsigned m = 0; m < k; ++m) {
        const Pages &pg = pages[m];
        RpcResponse &resp = resps[m];
        if (pg.fromStorage)
            resp.done = std::max(resp.done, storage_done);
        if (pg.fromVictim)
            resp.done = std::max(resp.done, vc_done);
        for (unsigned i = 0; i < pg.n; ++i)
            resp.bytes += pg.valid[i];
        resp.peerPages = pg.forwarded;
        if (reqs[m]->op == RpcOp::PeerReadPages) {
            peerPagesForwarded.inc(pg.forwarded);
            peerPagesHost.inc(pg.n - pg.forwarded);
        }
    }
    return Status::Ok;
}

RpcResponse
CpuDaemon::applyWrites(gpu::GpuDevice &dev, const RpcRequest &req, Time t0)
{
    RpcResponse resp;
    resp.done = t0;
    if (!wellFormedWrite(req)) {
        resp.status = Status::Inval;
        return resp;
    }
    const bool peer = req.op == RpcOp::PeerWritePages;
    if (peer)
        peerWriteRpcs.inc();

    // GPU pages -> staging: the whole request rides ONE D2H DMA
    // reservation (a single setup cost) — the per-request CPU overhead
    // was already charged once by the caller.
    uint64_t total = req.len;
    if (req.op != RpcOp::WriteBack) {
        total = 0;
        for (unsigned i = 0; i < req.pageCount; ++i)
            total += req.batchLen[i];
    }
    Time t = chargePcie(dev, PcieHop::GpuToStorage, total, t0);
    resp.done = t;

    // Runs -> journal commit (durable files) -> ONE gathered pwritev:
    // one syscall charge on the serialized I/O path and one version
    // bump, never per-run overhead or per-run version churn. A peer
    // write lands on the host FIRST: a failed host write must not
    // leave the owner's cache holding never-durable bytes at a
    // still-matching version.
    std::vector<hostfs::WriteRun> runs = writeRunsOf(req);
    const auto nruns = static_cast<unsigned>(runs.size());
    if (nruns > 0) {
        bool journaled = false;
        Status js = maybeJournal(req.hostFd, runs.data(), nruns, t,
                                 &dev.simContext().cpuIo, journaled);
        resp.done = t;
        if (!ok(js)) {
            resp.status = js;
            return resp;
        }
        hostfs::IoResult w = retryIo([&](Time backoff) {
            return backend_->writev(req.hostFd, runs.data(), nruns,
                                    t + backoff, dev.id());
        });
        if (!ok(w.status)) {
            resp.status = w.status;
            return resp;
        }
        journalApplied(journaled);
        // Victim hygiene: drop the entries the runs overwrote (the
        // version gate is the correctness backstop; this frees the
        // slots early).
        hostfs::FileInfo info;
        if (victim_ && ok(fs.fstat(req.hostFd, &info))) {
            for (const hostfs::WriteRun &run : runs)
                victim_->invalidateRange(info.ino, run.offset, run.len);
        }
        resp.bytes = w.bytes;
        // The post-write version lets the writing GPU keep its cached
        // version current (its own writes are not "remote" changes).
        resp.version = w.version;
        resp.done = w.done;
    }
    if (!peer)
        return resp;

    // Mirror the now-durable extents into the owner's resident pages
    // (the requester's takeDirtyBatch holds the source fpage locks, so
    // the bytes are stable): the owner's copy then matches the
    // post-write host content, and later peer reads keep serving
    // current data instead of failing their version gate. The mirror
    // bytes ride the pair's P2P channel.
    PeerPageSource *src = peerSourceOf(req);
    unsigned mirrored = 0;
    unsigned nonzero = 0;
    uint64_t p2p_bytes = 0;
    for (unsigned i = 0; i < req.pageCount; ++i) {
        if (req.batchLen[i] == 0)
            continue;
        ++nonzero;
        uint64_t idx = req.batchOff[i] / req.pageLen;
        uint32_t in_page =
            static_cast<uint32_t>(req.batchOff[i] % req.pageLen);
        if (src && src->peerMirrorExtent(req.ino, idx, req.version,
                                         in_page, req.batch[i],
                                         req.batchLen[i])) {
            ++mirrored;
            p2p_bytes += req.batchLen[i];
        }
    }
    if (p2p_bytes > 0) {
        resp.done = std::max(resp.done,
                             chargeP2pDma(dev, req.gpuId, req.peerGpu,
                                          p2p_bytes, t0));
    }
    // A fully-mirrored batch leaves the owner's cache equal to the
    // post-write host content, so the owner's version advances with
    // the write instead of going stale — but only when the requester
    // marked this RPC as its write's ONLY partition (peerPublish):
    // when sibling partitions changed other pages of the same file in
    // the same flush, the owner may cache those pages too and a
    // publish would wrongly validate them.
    if (src && req.peerPublish && resp.version != 0 &&
        mirrored == nonzero && nonzero > 0) {
        src->peerPublishVersion(req.ino, req.version, resp.version);
    }
    peerExtentsMirrored.inc(mirrored);
    resp.peerPages = mirrored;
    return resp;
}

} // namespace rpc
} // namespace gpufs
