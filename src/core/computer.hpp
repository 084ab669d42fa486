// Computing actor (paper §V.D, Algorithm 3).
//
// Message-driven: each VertexMessage batch is folded into the update
// column of the value file. The first message a vertex receives in a
// superstep seeds the accumulator from the vertex's freshest stored
// payload (see the latest-column note in value_file.hpp /
// engine.hpp) via Program::first_update; subsequent messages fold into the
// in-progress accumulator. An update clears the stale flag so next
// superstep's dispatcher picks the vertex up; a first message that does
// *not* change the value still writes the copied payload with the flag
// set — the paper's "negative value" write — keeping the update column's
// payload fresh.
//
// Message-plane contract (DESIGN.md §11): under range routing this actor
// owns one contiguous vertex slice, so its value-file and latest-column
// writes never share a cache line with another computer, and batches
// arrive radix-staged in ascending-dst order — the apply loop walks the
// slice near-sequentially. Drained batch buffers are recycled into the
// engine's MessageBatchPool, closing the zero-allocation loop with the
// dispatchers' leases.
//
// Sum-fold programs (Program::float_sum_fold: PageRank and its delta
// variant) take a different apply path, because a float fold's result
// depends on arrival order. Each message converts to Q7.56 fixed point
// and adds into a private accumulator over this actor's OwnerMap slice
// (dense local_index, plus a touched bitmap); the slot is not written on
// arrival. On COMPUTE_OVER every touched vertex is published once, in
// ascending id order, through the same first_update -> compute -> changed
// -> slot/latest-column/worklist protocol as a first message above, with
// the correctly rounded total as the message. Integer addition is
// associative, so the result is bit-identical for every arrival order,
// while applies still overlap dispatch (DESIGN.md §11).
//
// COMPUTE_OVER (sent by the manager only after every dispatcher finished,
// hence after every batch of the superstep is already enqueued) is acked
// back with the number of vertices this actor updated.
#pragma once

#include <cstdint>
#include <exception>
#include <string>
#include <vector>

#include "actor/actor.hpp"
#include "core/message_pool.hpp"
#include "core/messages.hpp"
#include "core/ownership.hpp"
#include "core/program.hpp"
#include "core/sum_fold.hpp"
#include "storage/active_bitmap.hpp"
#include "storage/value_file.hpp"

namespace gpsa {

class ManagerActor;

class ComputerActor final : public Actor<ComputerMsg> {
 public:
  /// `worklist` (nullptr in sweep mode) receives the activation bit for
  /// every vertex this actor updates: set in the update column's
  /// generation inside the same first-update branch that clears the
  /// slot's stale flag, so bit and flag can never disagree (the
  /// bit-identical-results invariant, DESIGN.md §12). `orig_ids` (non-null
  /// only for renumbered v2 files) translates the vertex id handed to
  /// Program::first_update back to the original id; storage indexing
  /// stays internal. `owners` maps this actor's slice to the dense local
  /// range its sum-fold accumulator covers.
  ComputerActor(std::uint32_t id, ValueFile& values, const Program& program,
                std::vector<std::uint8_t>& latest_column,
                MessageBatchPool& pool, const OwnerMap& owners,
                ActiveBitmap* worklist = nullptr,
                const VertexId* orig_ids = nullptr);

  void connect(ManagerActor* manager);

  std::uint64_t updates_total() const { return updates_total_; }

  /// First-message events (one value-slot write each, even for
  /// non-updates — the "negative value" copy).
  std::uint64_t touches_total() const { return touches_total_; }

  /// Wall time spent applying batches, including the sum-fold publish
  /// pass (the compute-side complement of DispatcherActor::busy_seconds
  /// for the message-plane bench).
  double busy_seconds() const { return busy_seconds_; }

 protected:
  void on_message(ComputerMsg msg) override;

 private:
  void apply(const VertexMessage& message, unsigned update_col);
  /// Sum-fold path: adds the message into v's fixed-point accumulator.
  void accumulate(const VertexMessage& message);
  /// Sum-fold path: publishes every touched vertex's total and resets the
  /// accumulator for the next superstep.
  void publish_sums(unsigned update_col);
  /// First fold of a superstep for v: seeds from v's freshest payload, folds
  /// `message` in, and stores the result (or the copied payload, stale,
  /// when `changed` says it is no update) into the update column.
  void fold_first(VertexId v, Payload message, unsigned update_col);
  void report_failure(std::uint64_t superstep, const std::exception& e);

  const std::uint32_t id_;
  ValueFile& values_;
  const Program& program_;
  /// Which column holds vertex v's freshest payload. Shared array, but
  /// entry v is only ever written by the computer owning v.
  std::vector<std::uint8_t>& latest_column_;
  MessageBatchPool& pool_;
  /// Worklist mode's active bitmap; nullptr = sweep mode.
  ActiveBitmap* const worklist_;
  /// Renumbered files' internal -> original id map; nullptr = identity.
  const VertexId* const orig_ids_;
  const OwnerMap& owners_;

  /// Sum-fold state, sized only when program_.float_sum_fold(): per owned
  /// vertex (dense local index) its Q7.56 running total, and a bitmap of
  /// the local indices touched this superstep.
  const bool sum_fold_;
  std::vector<FixedSum> sums_;
  std::vector<std::uint64_t> touched_;

  ManagerActor* manager_ = nullptr;
  std::uint64_t updates_this_superstep_ = 0;
  std::uint64_t updates_total_ = 0;
  std::uint64_t touches_total_ = 0;
  double busy_seconds_ = 0.0;
};

}  // namespace gpsa
