#include "util/limits.h"

#include "util/clock.h"

namespace rdfql {

Deadline Deadline::AfterMs(uint64_t ms) {
  Deadline d;
  d.ns_ = SteadyNowNs() + ms * 1'000'000ull;
  return d;
}

bool Deadline::Expired() const {
  return ns_ != kInfiniteNs && SteadyNowNs() >= ns_;
}

void CancellationToken::Cancel(Status reason) {
  std::lock_guard<std::mutex> lock(mu_);
  if (tripped_.load(std::memory_order_relaxed)) return;
  reason_ = std::move(reason);
  // Release so a thread that observes tripped_ sees the latched reason.
  tripped_.store(true, std::memory_order_release);
}

Status CancellationToken::status() const {
  if (!cancelled()) return Status::Ok();
  std::lock_guard<std::mutex> lock(mu_);
  return reason_;
}

bool CancellationToken::Check() {
  if (tripped_.load(std::memory_order_acquire)) return false;
  if (deadline_.Expired()) {
    Cancel(Status::DeadlineExceeded("query exceeded its wall-clock budget"));
    return false;
  }
  return true;
}

}  // namespace rdfql
