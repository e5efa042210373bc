#include "base/exec_context.h"

#include <algorithm>
#include <limits>

#include "base/strings.h"

namespace car {

const char* LimitKindToString(LimitKind kind) {
  switch (kind) {
    case LimitKind::kNone:
      return "none";
    case LimitKind::kDeadline:
      return "deadline";
    case LimitKind::kCancelled:
      return "cancelled";
    case LimitKind::kMemoryBudget:
      return "memory_budget";
    case LimitKind::kWorkBudget:
      return "work_budget";
    case LimitKind::kFaultInjection:
      return "fault_injection";
    case LimitKind::kMaxCompoundClasses:
      return "max_compound_classes";
    case LimitKind::kMaxCompoundAttributes:
      return "max_compound_attributes";
    case LimitKind::kMaxCompoundRelations:
      return "max_compound_relations";
    case LimitKind::kMaxPivots:
      return "max_pivots";
    case LimitKind::kMaxConfigurations:
      return "max_configurations";
    case LimitKind::kMaxCandidates:
      return "max_candidates";
  }
  return "unknown";
}

std::string LimitReport::ToString() const {
  return StrCat("limit=", LimitKindToString(kind), " phase=", phase,
                " count=", count);
}

Status LimitReport::ToStatus() const {
  if (kind == LimitKind::kCancelled) return Cancelled(ToString());
  return ResourceExhausted(ToString());
}

Status LimitTripStatus(LimitKind kind, const char* phase, uint64_t limit,
                       uint64_t count) {
  LimitReport report;
  report.kind = kind;
  report.phase = phase;
  report.limit = limit;
  report.count = count;
  return report.ToStatus();
}

uint8_t LimitKindToWire(LimitKind kind) {
  return static_cast<uint8_t>(kind);
}

LimitKind LimitKindFromWire(uint8_t value) {
  if (value > static_cast<uint8_t>(LimitKind::kMaxCandidates)) {
    return LimitKind::kNone;
  }
  return static_cast<LimitKind>(value);
}

AdmissionLimits AdmissionLimits::Tighten(const AdmissionLimits& a,
                                         const AdmissionLimits& b) {
  // 0 = unlimited for the budgets, kNoInjection = disabled for the
  // injection threshold: in both cases the configured side wins, and two
  // configured sides take the minimum.
  auto tighter = [](uint64_t x, uint64_t y, uint64_t none) {
    if (x == none) return y;
    if (y == none) return x;
    return std::min(x, y);
  };
  AdmissionLimits result;
  result.deadline_ms = tighter(a.deadline_ms, b.deadline_ms, 0);
  result.work_budget = tighter(a.work_budget, b.work_budget, 0);
  result.memory_budget_bytes =
      tighter(a.memory_budget_bytes, b.memory_budget_bytes, 0);
  result.inject_after =
      tighter(a.inject_after, b.inject_after, kNoInjection);
  return result;
}

void AdmissionLimits::ConfigureContext(ExecContext* context) const {
  if (deadline_ms > 0) {
    // Saturate the unsigned wire value into the signed duration; anything
    // that large is past the clock's horizon, i.e. no deadline.
    context->SetDeadlineAfter(std::chrono::milliseconds(
        static_cast<int64_t>(std::min<uint64_t>(
            deadline_ms, std::chrono::milliseconds::max().count()))));
  }
  if (work_budget > 0) context->SetWorkBudget(work_budget);
  if (memory_budget_bytes > 0) context->SetMemoryBudget(memory_budget_bytes);
  if (inject_after != kNoInjection) context->InjectTripAfter(inject_after);
}

void ExecContext::set_deadline(
    std::chrono::steady_clock::time_point deadline) {
  auto now = std::chrono::steady_clock::now();
  deadline_budget_ms_.store(
      static_cast<uint64_t>(std::max<int64_t>(
          0, std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                                   now)
                 .count())),
      std::memory_order_relaxed);
  deadline_ns_.store(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          deadline.time_since_epoch())
          .count(),
      std::memory_order_relaxed);
}

void ExecContext::SetDeadlineAfter(std::chrono::milliseconds budget) {
  const int64_t now_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count();
  const int64_t budget_ms = std::max<int64_t>(0, budget.count());
  // The deadline must fit the clock's int64 nanosecond count. A budget
  // past that horizon (about 292 years of clock reading) means no
  // deadline, instead of an overflowed one that trips at once.
  constexpr int64_t kNanosPerMilli = 1000000;
  if (budget_ms > (std::numeric_limits<int64_t>::max() - now_ns) /
                      kNanosPerMilli) {
    deadline_budget_ms_.store(0, std::memory_order_relaxed);
    deadline_ns_.store(0, std::memory_order_relaxed);
    return;
  }
  deadline_budget_ms_.store(static_cast<uint64_t>(budget_ms),
                            std::memory_order_relaxed);
  deadline_ns_.store(now_ns + budget_ms * kNanosPerMilli,
                     std::memory_order_relaxed);
}

void ExecContext::SetWorkBudget(uint64_t units) {
  work_budget_.store(units, std::memory_order_relaxed);
}

void ExecContext::SetMemoryBudget(uint64_t bytes) {
  byte_budget_.store(bytes, std::memory_order_relaxed);
}

void ExecContext::InjectTripAfter(uint64_t units) {
  inject_after_.store(units, std::memory_order_relaxed);
}

void ExecContext::RequestCancellation() {
  RecordTrip(LimitKind::kCancelled, "", 0, 0);
}

Status ExecContext::TripStatus() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return first_trip_.ToStatus();
}

Status ExecContext::DeadlineStatus(const char* phase) {
  auto now_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now().time_since_epoch())
                    .count();
  int64_t deadline_ns = deadline_ns_.load(std::memory_order_relaxed);
  if (deadline_ns == 0 || now_ns < deadline_ns) return Status::Ok();
  uint64_t budget_ms = deadline_budget_ms_.load(std::memory_order_relaxed);
  return RecordTrip(LimitKind::kDeadline, phase, budget_ms, budget_ms);
}

Status ExecContext::ChargeWork(uint64_t units, const char* phase) {
  if (units == 0) return Check(phase);
  if (tripped_.load(std::memory_order_relaxed)) return TripStatus();
  uint64_t pre = work_.fetch_add(units, std::memory_order_relaxed);
  // Fault injection takes precedence over the real budget so tests can
  // exercise abort points below any configured budget.
  uint64_t inject = inject_after_.load(std::memory_order_relaxed);
  if (Crossed(pre, units, inject)) {
    return RecordTrip(LimitKind::kFaultInjection, phase, inject, inject);
  }
  uint64_t budget = work_budget_.load(std::memory_order_relaxed);
  if (Crossed(pre, units, budget)) {
    return RecordTrip(LimitKind::kWorkBudget, phase, budget, budget);
  }
  // Opportunistic deadline check once per stride of charged work (every
  // Check() at a phase boundary also looks at the clock).
  if (deadline_ns_.load(std::memory_order_relaxed) != 0 &&
      (pre / kDeadlineStride != (pre + units) / kDeadlineStride ||
       units >= kDeadlineStride)) {
    return DeadlineStatus(phase);
  }
  return Status::Ok();
}

Status ExecContext::ChargeBytes(uint64_t bytes, const char* phase) {
  if (tripped_.load(std::memory_order_relaxed)) return TripStatus();
  if (bytes == 0) return Status::Ok();
  uint64_t pre = bytes_.fetch_add(bytes, std::memory_order_relaxed);
  uint64_t budget = byte_budget_.load(std::memory_order_relaxed);
  if (Crossed(pre, bytes, budget)) {
    return RecordTrip(LimitKind::kMemoryBudget, phase, budget, budget);
  }
  return Status::Ok();
}

Status ExecContext::Check(const char* phase) {
  if (tripped_.load(std::memory_order_relaxed)) return TripStatus();
  if (deadline_ns_.load(std::memory_order_relaxed) != 0) {
    return DeadlineStatus(phase);
  }
  return Status::Ok();
}

Status ExecContext::RecordTrip(LimitKind kind, const char* phase,
                               uint64_t limit, uint64_t count) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!first_trip_.tripped()) {
    first_trip_.kind = kind;
    first_trip_.phase = phase;
    first_trip_.limit = limit;
    first_trip_.count = count;
    tripped_.store(true, std::memory_order_release);
  }
  return first_trip_.ToStatus();
}

void ExecContext::OverridePhaseOnTrip(const char* phase) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (first_trip_.tripped()) first_trip_.phase = phase;
}

ProgressSnapshot ExecContext::progress() const {
  ProgressSnapshot snapshot;
  snapshot.work_charged = work_.load(std::memory_order_relaxed);
  snapshot.bytes_charged = bytes_.load(std::memory_order_relaxed);
  snapshot.compounds_enumerated = compounds_.load(std::memory_order_relaxed);
  snapshot.pivots_executed = pivots_.load(std::memory_order_relaxed);
  snapshot.lp_solves = lp_solves_.load(std::memory_order_relaxed);
  snapshot.configurations_examined =
      configurations_.load(std::memory_order_relaxed);
  snapshot.queries_completed = queries_.load(std::memory_order_relaxed);
  snapshot.memo_hits = memo_hits_.load(std::memory_order_relaxed);
  snapshot.memo_misses = memo_misses_.load(std::memory_order_relaxed);
  snapshot.prefilter_hits = prefilter_hits_.load(std::memory_order_relaxed);
  snapshot.cluster_local_solves =
      cluster_local_.load(std::memory_order_relaxed);
  snapshot.warm_starts = warm_starts_.load(std::memory_order_relaxed);
  snapshot.scalar_promotions =
      scalar_promotions_.load(std::memory_order_relaxed);
  snapshot.peak_tableau_nonzeros =
      peak_tableau_nonzeros_.load(std::memory_order_relaxed);
  snapshot.peak_tableau_cells =
      peak_tableau_cells_.load(std::memory_order_relaxed);
  snapshot.refinement_rounds =
      refinement_rounds_.load(std::memory_order_relaxed);
  snapshot.compounds_materialized =
      compounds_materialized_.load(std::memory_order_relaxed);
  snapshot.spurious_witnesses =
      spurious_witnesses_.load(std::memory_order_relaxed);
  snapshot.blocking_constraints =
      blocking_constraints_.load(std::memory_order_relaxed);
  snapshot.certificate_closures =
      certificate_closures_.load(std::memory_order_relaxed);
  return snapshot;
}

LimitReport ExecContext::report() const {
  LimitReport report;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    report = first_trip_;
  }
  report.progress = progress();
  return report;
}

}  // namespace car
