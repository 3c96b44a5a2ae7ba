/**
 * @file
 * The per-GPU RPC request queue.
 *
 * In the paper this is a FIFO of slots in write-shared (zero-copy
 * mapped) CPU memory: GPU threadblocks fill slots and set a ready flag
 * with a memory fence; the CPU daemon polls for ready slots, services
 * them, and flips the flag back (no PCIe atomics exist, so the protocol
 * is pure message passing with one-directional flag handoff — each
 * field has exactly one writer at a time).
 *
 * The simulation keeps that slot protocol bit-for-bit, replacing the
 * busy-poll with C++20 atomic wait/notify so host CPUs aren't burned
 * spinning; semantically the daemon still "polls" — nothing blocks the
 * GPU side except its own slot's completion flag.
 */

#ifndef GPUFS_RPC_QUEUE_HH
#define GPUFS_RPC_QUEUE_HH

#include <atomic>
#include <cstdint>
#include <thread>

#include "base/logging.hh"
#include "rpc/msg.hh"

namespace gpufs {
namespace rpc {

/** Slot handshake states. Written by one side at a time. */
enum SlotState : uint32_t {
    kSlotFree = 0,       ///< owned by GPU allocators
    kSlotFilling = 1,    ///< a GPU block is writing the request
    kSlotReady = 2,      ///< request visible to the CPU daemon
    kSlotBusy = 3,       ///< daemon is servicing it
    kSlotDone = 4,       ///< response visible to the GPU block
};

/** Number of request slots per GPU queue. */
constexpr unsigned kQueueSlots = 64;

struct alignas(64) RpcSlot {
    std::atomic<uint32_t> state{kSlotFree};
    RpcRequest req;
    RpcResponse resp;
};

/**
 * One GPU's request queue plus the doorbell the daemon sleeps on.
 * The doorbell is shared across queues (owned by the daemon) so a
 * single thread can watch every GPU, like the paper's one-CPU design.
 */
class RpcQueue
{
  public:
    explicit RpcQueue(std::atomic<uint64_t> &doorbell_counter)
        : doorbell(doorbell_counter) {}

    RpcQueue(const RpcQueue &) = delete;
    RpcQueue &operator=(const RpcQueue &) = delete;

    /**
     * Split-phase submit: allocate a slot, publish the request, and
     * return WITHOUT waiting. The caller owns the returned slot until
     * it passes it to collect() — a block may hold several outstanding
     * slots and collect them in any order (non-blocking I/O core); the
     * daemon completes slots as it services them, so delivery order is
     * independent of submission order.
     */
    RpcSlot *
    submit(const RpcRequest &req)
    {
        RpcSlot &slot = allocate();
        slot.req = req;
        // Publish: the state store is the fence making req visible.
        slot.state.store(kSlotReady, std::memory_order_release);
        ringDoorbell();
        return &slot;
    }

    /**
     * Non-blocking submit: one sweep over the slot array; nullptr when
     * every slot is in flight. Split-phase submitters MUST use this —
     * they hold uncollected slots, and blocking in allocate() while
     * holding the very resource other spinners wait for is a deadlock
     * cycle (allocate() is only safe for callers that hold no slots,
     * which the synchronous call() path guarantees).
     */
    RpcSlot *
    trySubmit(const RpcRequest &req)
    {
        RpcSlot *slot = tryAllocate();
        if (!slot)
            return nullptr;
        slot->req = req;
        slot->state.store(kSlotReady, std::memory_order_release);
        ringDoorbell();
        return slot;
    }

    /** Non-blocking completion probe for a submitted slot. */
    bool
    ready(const RpcSlot &slot) const
    {
        return slot.state.load(std::memory_order_acquire) == kSlotDone;
    }

    /**
     * Collect a submitted slot: wait for the daemon's completion,
     * free the slot, return the response by value.
     */
    RpcResponse
    collect(RpcSlot &slot)
    {
        // GPU side spins on its own slot (bounded spin, then park).
        uint32_t s;
        int spins = 0;
        while ((s = slot.state.load(std::memory_order_acquire))
               != kSlotDone) {
            if (++spins > 1024)
                slot.state.wait(s, std::memory_order_acquire);
        }
        RpcResponse resp = slot.resp;
        slot.state.store(kSlotFree, std::memory_order_release);
        slot.state.notify_all();
        inFlight_.fetch_sub(1, std::memory_order_relaxed);
        return resp;
    }

    /**
     * Synchronous call from a GPU block: submit and immediately wait.
     */
    RpcResponse
    call(const RpcRequest &req)
    {
        return collect(*submit(req));
    }

    /** High-water mark of concurrently in-flight slots. */
    unsigned
    maxInFlightSlots() const
    {
        return maxInFlight_.load(std::memory_order_relaxed);
    }

    /** Times a submitter swept every slot and found none free. */
    uint64_t
    fullQueueStalls() const
    {
        return fullStalls_.load(std::memory_order_relaxed);
    }

    /** Total slots successfully claimed (submission count). Together
     *  with fullQueueStalls this is the doorbell-coalescing decision
     *  signal: stalls above ~1% of submissions mean the slot array —
     *  not the daemon — is what submitters are waiting on. */
    uint64_t
    submissions() const
    {
        return submitted_.load(std::memory_order_relaxed);
    }

    /** Doorbell rings elided because the daemon already had ready,
     *  unclaimed slots to wake for (burst coalescing): bursts wake the
     *  daemon once and arrive as one pollAll sweep, which is what
     *  gives cross-slot aggregation something to aggregate. */
    uint64_t
    doorbellRingsSuppressed() const
    {
        return ringsSuppressed_.load(std::memory_order_relaxed);
    }

    /**
     * Daemon side: claim EVERY currently-ready slot in one sweep.
     * With split-phase submission a single block can have many slots
     * outstanding, and slot-array order bears no relation to the
     * virtual times the requests were issued at — the daemon sorts a
     * sweep's claims by issueTime before servicing so its serialized
     * CPU timeline reserves in causal order. @return slots claimed.
     */
    unsigned
    pollAll(RpcSlot **out, unsigned max_out)
    {
        unsigned n = 0;
        for (unsigned i = 0; i < kQueueSlots && n < max_out; ++i) {
            uint32_t expect = kSlotReady;
            if (slots[i].state.compare_exchange_strong(
                    expect, kSlotBusy, std::memory_order_acq_rel)) {
                out[n++] = &slots[i];
            }
        }
        if (n > 0) {
            readyPending_.fetch_sub(static_cast<int64_t>(n),
                                    std::memory_order_acq_rel);
        }
        return n;
    }

    /** Daemon side: publish the response and release the slot. The
     *  store is seq_cst, not release: notify_all skips the wake when it
     *  sees no registered waiter, and a waiter registers before its
     *  last value check, so the store must be ordered before that
     *  waiter-count load or a block can sleep on a slot already Done
     *  (a release store may pass the load, and did, hanging a block
     *  with the daemon idle). */
    static void
    complete(RpcSlot &slot, const RpcResponse &resp)
    {
        slot.resp = resp;
        slot.state.store(kSlotDone, std::memory_order_seq_cst);
        slot.state.notify_all();
    }

  private:
    /**
     * Doorbell coalescing: ring only on the quiet->busy edge. The
     * ready-but-unclaimed census readyPending_ goes up here (AFTER the
     * slot's kSlotReady store) and down at each daemon claim; a
     * submitter observing prior pending slots knows a ring for them is
     * still in flight — the daemon cannot have parked without first
     * claiming them in its final sweep (it re-sweeps until quiet, and
     * the claim CAS + this RMW chain give it the latest count) — so
     * its own ring would be redundant and is elided. The counter can
     * transiently read negative (a claim's decrement landing between a
     * submitter's state store and its increment), which only makes
     * that submitter ring conservatively. Suppression bursts therefore
     * wake the daemon once per burst, and the whole burst arrives as
     * ONE pollAll sweep — the daemon-side aggregation's feedstock.
     */
    void
    ringDoorbell()
    {
        if (readyPending_.fetch_add(1, std::memory_order_acq_rel) <= 0) {
            // seq_cst for the same reason as complete(): the ring must
            // be ordered before notify_one's waiter-count load.
            doorbell.fetch_add(1, std::memory_order_seq_cst);
            doorbell.notify_one();
        } else {
            ringsSuppressed_.fetch_add(1, std::memory_order_relaxed);
        }
    }

    /** One claim sweep; nullptr when no slot is free. */
    RpcSlot *
    tryAllocate()
    {
        // Ticket-spread probing keeps concurrent blocks off each
        // other's cache lines.
        unsigned start = ticket.fetch_add(1, std::memory_order_relaxed);
        for (unsigned i = 0; i < kQueueSlots; ++i) {
            RpcSlot &slot = slots[(start + i) % kQueueSlots];
            uint32_t expect = kSlotFree;
            if (slot.state.compare_exchange_strong(
                    expect, kSlotFilling, std::memory_order_acq_rel)) {
                // Slot-pressure accounting (ROADMAP "RPC slot
                // scaling") at the claim itself, so the high-water
                // mark matches real occupancy (a queue that ever
                // stalled full must have seen kQueueSlots here).
                submitted_.fetch_add(1, std::memory_order_relaxed);
                unsigned depth = inFlight_.fetch_add(
                    1, std::memory_order_relaxed) + 1;
                unsigned seen =
                    maxInFlight_.load(std::memory_order_relaxed);
                while (seen < depth &&
                       !maxInFlight_.compare_exchange_weak(
                           seen, depth, std::memory_order_relaxed)) {
                }
                return &slot;
            }
        }
        return nullptr;
    }

    /** Blocking claim: waits for a free slot. Safe ONLY for callers
     *  holding no uncollected slots (see trySubmit). */
    RpcSlot &
    allocate()
    {
        for (;;) {
            RpcSlot *slot = tryAllocate();
            if (slot)
                return *slot;
            fullStalls_.fetch_add(1, std::memory_order_relaxed);
            std::this_thread::yield();
        }
    }

    RpcSlot slots[kQueueSlots];
    std::atomic<unsigned> ticket{0};
    std::atomic<uint64_t> &doorbell;

    std::atomic<unsigned> inFlight_{0};
    std::atomic<unsigned> maxInFlight_{0};
    std::atomic<uint64_t> fullStalls_{0};
    std::atomic<uint64_t> submitted_{0};

    /** Ready-but-unclaimed census (signed: see ringDoorbell). */
    std::atomic<int64_t> readyPending_{0};
    std::atomic<uint64_t> ringsSuppressed_{0};
};

} // namespace rpc
} // namespace gpufs

#endif // GPUFS_RPC_QUEUE_HH
