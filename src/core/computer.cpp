#include "core/computer.hpp"

#include <bit>

#include "core/manager.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace gpsa {

ComputerActor::ComputerActor(std::uint32_t id, ValueFile& values,
                             const Program& program,
                             std::vector<std::uint8_t>& latest_column,
                             MessageBatchPool& pool, const OwnerMap& owners,
                             ActiveBitmap* worklist, const VertexId* orig_ids)
    : id_(id),
      values_(values),
      program_(program),
      latest_column_(latest_column),
      pool_(pool),
      worklist_(worklist),
      orig_ids_(orig_ids),
      owners_(owners),
      sum_fold_(program.float_sum_fold()) {
  if (sum_fold_) {
    const VertexId local = owners_.local_size(id_);
    sums_.assign(local, 0);
    touched_.assign((static_cast<std::size_t>(local) + 63) / 64, 0);
  }
}

void ComputerActor::connect(ManagerActor* manager) {
  GPSA_CHECK(manager != nullptr);
  manager_ = manager;
}

void ComputerActor::report_failure(std::uint64_t superstep,
                                   const std::exception& e) {
  // A user compute/first_update hook threw, or a sum fold overflowed:
  // report instead of wedging the superstep barrier (§V.C exception
  // handling).
  ManagerMsg failed;
  failed.kind = ManagerMsg::Kind::kWorkerFailed;
  failed.superstep = superstep;
  failed.worker_id = id_;
  failed.error = std::string("computer: ") + e.what();
  manager_->send(std::move(failed));
}

void ComputerActor::on_message(ComputerMsg msg) {
  switch (msg.kind) {
    case ComputerMsg::Kind::kBatch:
      try {
        const ScopedAccumulator busy(busy_seconds_);
        if (sum_fold_) {
          for (const VertexMessage& m : msg.batch) {
            accumulate(m);
          }
        } else {
          const unsigned update_col = ValueFile::update_column(msg.superstep);
          for (const VertexMessage& m : msg.batch) {
            apply(m, update_col);
          }
        }
        // Drained: the leased buffer re-enters circulation for the next
        // dispatcher flush (the zero-allocation loop).
        pool_.recycle(std::move(msg.batch));
      } catch (const std::exception& e) {
        report_failure(msg.superstep, e);
      }
      break;
    case ComputerMsg::Kind::kComputeOver: {
      if (sum_fold_) {
        try {
          const ScopedAccumulator busy(busy_seconds_);
          publish_sums(ValueFile::update_column(msg.superstep));
        } catch (const std::exception& e) {
          report_failure(msg.superstep, e);
          break;
        }
      }
      ManagerMsg ack;
      ack.kind = ManagerMsg::Kind::kComputeOver;
      ack.superstep = msg.superstep;
      ack.worker_id = id_;
      ack.count = updates_this_superstep_;
      updates_total_ += updates_this_superstep_;
      updates_this_superstep_ = 0;
      manager_->send(ack);
      break;
    }
    case ComputerMsg::Kind::kSystemOver:
      break;
  }
}

void ComputerActor::fold_first(VertexId v, Payload message,
                               unsigned update_col) {
  // Seed the accumulator from the freshest stored payload (Algorithm 3
  // line 9).
  const Payload base = slot_payload(values_.load(v, latest_column_[v]));
  // first_update sees the original id (identity unless renumbered).
  const Payload seed =
      program_.first_update(orig_ids_ == nullptr ? v : orig_ids_[v], base);
  const Payload acc = program_.compute(seed, message);
  const bool updated = program_.changed(base, acc);
  // Even a non-update writes the copied payload ("a negative value will
  // be written"), so this column now holds v's freshest value.
  values_.store(v, update_col, make_slot(updated ? acc : base, !updated));
  latest_column_[v] = static_cast<std::uint8_t>(update_col);
  ++touches_total_;
  if (updated) {
    ++updates_this_superstep_;
    // Activation publishes to the bitmap in lock-step with the stale
    // flag: this branch is the only store of a non-stale slot into a
    // freshly-invalidated column, so "bit set in generation g" <=>
    // "column g's flag clear" — worklist dispatch reads exactly the
    // sweep's active set.
    if (worklist_ != nullptr) {
      worklist_->set(v, update_col);
    }
  }
}

void ComputerActor::apply(const VertexMessage& message,
                          unsigned update_col) {
  const VertexId v = message.dst;
  const Slot current = values_.load(v, update_col);

  if (slot_is_stale(current)) {
    // First message of this superstep for v (the update column was
    // invalidated when it was last dispatched).
    fold_first(v, message.value, update_col);
    return;
  }

  // Fold into the in-progress accumulator.
  const Payload seed = slot_payload(current);
  const Payload acc = program_.compute(seed, message.value);
  if (acc != seed) {
    values_.store(v, update_col, make_slot(acc, /*stale=*/false));
  }
}

void ComputerActor::accumulate(const VertexMessage& message) {
  const VertexId local = owners_.local_index(message.dst, id_);
  touched_[local / 64] |= std::uint64_t{1} << (local % 64);
  fixed_sum_add(sums_[local], payload_to_fixed(message.value));
}

void ComputerActor::publish_sums(unsigned update_col) {
  for (std::size_t w = 0; w < touched_.size(); ++w) {
    std::uint64_t bits = touched_[w];
    touched_[w] = 0;
    while (bits != 0) {
      const auto local =
          static_cast<VertexId>(w * 64 + std::countr_zero(bits));
      bits &= bits - 1;
      const FixedSum sum = sums_[local];
      sums_[local] = 0;
      fold_first(owners_.global_index(local, id_), fixed_to_payload(sum),
                 update_col);
    }
  }
}

}  // namespace gpsa
