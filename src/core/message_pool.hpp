// Pooled VertexMessage batch buffers (the zero-allocation message plane).
//
// The dispatch hot path used to pay one heap allocation per flushed batch:
// flush_batch moved the staging vector into the mailbox message and
// reserve()d a fresh one, and the drained vector was freed when the
// computing actor destroyed the message. GraphHP and the Ammar-Özsu
// systems analysis (PAPERS.md) both put per-message allocator traffic
// among the dominant BSP message-plane costs once I/O is pipelined.
//
// This pool closes the loop: dispatchers *lease* an empty buffer with the
// batch capacity already reserved, and computing actors *recycle* the
// drained buffer after applying it. How many buffers are in flight at
// once is the scheduler's business (dispatchers running ahead of the
// computers hold more), so the pool does not size itself from what it
// happened to see: at each superstep boundary it tops its population up
// to the most leases any one superstep has made — the most a superstep
// can have in flight, whatever the worker count. A superstep that leases
// no more than an earlier one then runs allocation-free under every
// schedule — MessagePoolStats reports exactly that (steady_misses == 0)
// and the message-plane bench gates on it. (Mod routing's dispatchers
// keep one staging buffer per owner across the boundary; those
// dispatchers x owners buffers sit outside this guarantee.)
//
// Concurrency: lease() runs on dispatcher actors, recycle() on computing
// actors, mark_superstep() on the manager — all scheduler workers. One
// annotated Mutex guards the free list; the critical sections are a
// vector move plus counter bumps, two orders of magnitude cheaper than
// the malloc/free pair they replace (and off the per-message path
// entirely: one lease+recycle per EngineOptions::message_batch messages).
//
// Lifetime: the engine owns the pool and keeps it alive until after
// ActorSystem::shutdown(), so buffers still sitting in mailboxes at
// SYSTEM_OVER are simply destroyed with their messages (a leased buffer
// is an ordinary std::vector — dropping it instead of recycling is safe,
// it is only a pool miss waiting to happen in a run that has already
// ended).
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/messages.hpp"
#include "util/status.hpp"
#include "util/thread_annotations.hpp"

namespace gpsa {

// --- Lease→wire hooks (DESIGN.md §14) -----------------------------------
//
// A leased batch buffer is already the wire representation of a BATCH
// frame payload: contiguous {dst u32, value u32} pairs with no padding.
// These asserts are what make the transport's reinterpret-cast view and
// memcpy decode sound — if the message layout ever changes, the wire
// format breaks here at compile time instead of on a cluster.
static_assert(std::is_trivially_copyable_v<VertexMessage>,
              "VertexMessage must serialize by memcpy");
static_assert(sizeof(VertexMessage) == 8 && sizeof(VertexId) == 4 &&
                  sizeof(Payload) == 4,
              "wire BATCH payloads are packed {dst u32, value u32} pairs");
static_assert(std::endian::native == std::endian::little,
              "the wire format writes VertexMessage arrays as host bytes "
              "and declares them little-endian");

/// Raw-byte view of a leased batch for zero-copy serialization.
inline std::pair<const std::uint8_t*, std::size_t> batch_wire_view(
    const std::vector<VertexMessage>& batch) {
  return {reinterpret_cast<const std::uint8_t*>(batch.data()),
          batch.size() * sizeof(VertexMessage)};
}

/// Decodes a BATCH frame's message bytes into `out` (normally a freshly
/// leased buffer). Rejects byte counts that are not whole messages.
inline Status decode_batch_into(const std::uint8_t* data, std::size_t size,
                                std::vector<VertexMessage>& out) {
  if (size % sizeof(VertexMessage) != 0) {
    return corrupt_data("BATCH payload of " + std::to_string(size) +
                        " bytes is not a whole number of messages");
  }
  out.resize(size / sizeof(VertexMessage));
  if (size > 0) {
    std::memcpy(out.data(), data, size);
  }
  return Status::ok();
}

/// Pool activity surfaced in RunResult (and the bench JSON artifact).
struct MessagePoolStats {
  bool enabled = false;
  std::uint64_t leases = 0;
  /// Leases served from the free list (no allocation).
  std::uint64_t hits = 0;
  /// Leases that had to allocate a fresh buffer.
  std::uint64_t misses = 0;
  /// Misses after the warm-up window (the first two supersteps). Zero in
  /// steady state by design; the message-plane bench gate enforces it.
  std::uint64_t steady_misses = 0;
  /// Capacity returned through recycle(), in bytes.
  std::uint64_t recycled_bytes = 0;
};

/// Reads GPSA_MSG_POOL (default on) when `requested` is unset.
bool resolve_message_pool_enabled(std::optional<bool> requested);

class MessageBatchPool {
 public:
  /// `batch_capacity`: capacity every leased buffer is reserved to
  /// (EngineOptions::message_batch). `enabled=false` degrades lease() to
  /// plain allocation and recycle() to a drop — the ablation baseline —
  /// while keeping one code path in the actors.
  explicit MessageBatchPool(std::size_t batch_capacity, bool enabled = true);

  MessageBatchPool(const MessageBatchPool&) = delete;
  MessageBatchPool& operator=(const MessageBatchPool&) = delete;

  bool enabled() const { return enabled_; }

  /// An empty buffer with at least batch_capacity reserved.
  std::vector<VertexMessage> lease() GPSA_EXCLUDES(mutex_);

  /// Return a drained buffer; its capacity re-enters circulation.
  void recycle(std::vector<VertexMessage>&& buffer) GPSA_EXCLUDES(mutex_);

  /// Superstep boundary (called by the manager, once every batch of the
  /// superstep has been recycled): tops the buffer population up to the
  /// largest per-superstep lease count so far. After two of these the
  /// warm-up window closes and further misses count as steady_misses.
  void mark_superstep() GPSA_EXCLUDES(mutex_);

  MessagePoolStats stats() const GPSA_EXCLUDES(mutex_);

 private:
  /// A fresh buffer with batch_capacity_ reserved.
  std::vector<VertexMessage> allocate() const;

  const std::size_t batch_capacity_;
  const bool enabled_;

  mutable Mutex mutex_{"MessagePool.free"};
  std::vector<std::vector<VertexMessage>> free_ GPSA_GUARDED_BY(mutex_);
  std::uint64_t leases_ GPSA_GUARDED_BY(mutex_) = 0;
  std::uint64_t hits_ GPSA_GUARDED_BY(mutex_) = 0;
  std::uint64_t misses_ GPSA_GUARDED_BY(mutex_) = 0;
  std::uint64_t steady_misses_ GPSA_GUARDED_BY(mutex_) = 0;
  std::uint64_t recycled_bytes_ GPSA_GUARDED_BY(mutex_) = 0;
  std::uint64_t supersteps_marked_ GPSA_GUARDED_BY(mutex_) = 0;
  /// Buffers this pool has allocated (misses plus boundary top-ups).
  std::uint64_t population_ GPSA_GUARDED_BY(mutex_) = 0;
  /// Leases since the last boundary, and the most of any one superstep.
  std::uint64_t superstep_leases_ GPSA_GUARDED_BY(mutex_) = 0;
  std::uint64_t peak_superstep_leases_ GPSA_GUARDED_BY(mutex_) = 0;
};

}  // namespace gpsa
