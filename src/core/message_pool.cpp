#include "core/message_pool.hpp"

#include <algorithm>
#include <cstdlib>
#include <string>

#include "util/check.hpp"

namespace gpsa {

bool resolve_message_pool_enabled(std::optional<bool> requested) {
  if (requested.has_value()) {
    return *requested;
  }
  const char* raw = std::getenv("GPSA_MSG_POOL");
  if (raw == nullptr || *raw == '\0') {
    return true;
  }
  const std::string value(raw);
  return !(value == "0" || value == "false" || value == "off" ||
           value == "no");
}

MessageBatchPool::MessageBatchPool(std::size_t batch_capacity, bool enabled)
    : batch_capacity_(batch_capacity), enabled_(enabled) {
  GPSA_CHECK(batch_capacity_ > 0);
}

std::vector<VertexMessage> MessageBatchPool::allocate() const {
  // The one sanctioned allocation site for message batch buffers (the
  // gpsa-lint msg-buffer-alloc rule confines sized construction and
  // reserve/resize of VertexMessage vectors to this file).
  std::vector<VertexMessage> buffer;
  buffer.reserve(batch_capacity_);
  return buffer;
}

std::vector<VertexMessage> MessageBatchPool::lease() {
  if (enabled_) {
    MutexLock lock(mutex_);
    ++leases_;
    ++superstep_leases_;
    if (!free_.empty()) {
      ++hits_;
      std::vector<VertexMessage> buffer = std::move(free_.back());
      free_.pop_back();
      return buffer;
    }
    ++misses_;
    ++population_;
    if (supersteps_marked_ >= 2) {
      ++steady_misses_;
    }
  }
  return allocate();
}

void MessageBatchPool::recycle(std::vector<VertexMessage>&& buffer) {
  if (!enabled_) {
    return;  // dropped; the ablation baseline frees every batch
  }
  buffer.clear();  // destroys nothing (trivial elements), keeps capacity
  MutexLock lock(mutex_);
  recycled_bytes_ += buffer.capacity() * sizeof(VertexMessage);
  free_.push_back(std::move(buffer));
}

void MessageBatchPool::mark_superstep() {
  MutexLock lock(mutex_);
  ++supersteps_marked_;
  if (!enabled_) {
    return;
  }
  // Every buffer leased this superstep could have been in flight at once
  // (a dispatcher enqueues its whole interval in one slice), so the next
  // superstep is miss-free under any schedule once the population covers
  // the largest lease count seen.
  peak_superstep_leases_ = std::max(peak_superstep_leases_, superstep_leases_);
  superstep_leases_ = 0;
  while (population_ < peak_superstep_leases_) {
    free_.push_back(allocate());
    ++population_;
  }
}

MessagePoolStats MessageBatchPool::stats() const {
  MutexLock lock(mutex_);
  MessagePoolStats out;
  out.enabled = enabled_;
  out.leases = leases_;
  out.hits = hits_;
  out.misses = misses_;
  out.steady_misses = steady_misses_;
  out.recycled_bytes = recycled_bytes_;
  return out;
}

}  // namespace gpsa
