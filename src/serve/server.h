#ifndef CAR_SERVE_SERVER_H_
#define CAR_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "base/exec_context.h"
#include "base/status.h"
#include "persist/snapshot_store.h"
#include "serve/protocol.h"
#include "serve/session_cache.h"

namespace car {
namespace serve {

struct ServerOptions {
  /// Worker threads used inside one query batch (ReasonerOptions
  /// num_threads semantics: 1 = serial reference, 0 = hardware
  /// concurrency). Answers are bit-identical for every value.
  int num_threads = 1;
  /// Static-analysis prefilter tiers of the incremental sessions.
  bool prefilter = true;
  /// Lazy (counterexample-guided) expansion inside the tenant sessions —
  /// the serving default since the engine gained sound lazy UNSAT
  /// verdicts (infeasibility certificates): answers are bit-identical
  /// either way, but dense tenant schemas stop paying the eager
  /// enumeration up front, while hierarchy-shaped ones are routed to the
  /// solved base at once (IncrementalSession::RouteLazySession).
  /// car_serve --no-lazy-expansion opts out.
  bool lazy_expansion = true;
  /// Session-cache eviction policy.
  uint64_t max_sessions = 64;
  uint64_t memory_budget_bytes = 512ull << 20;
  /// Server-side per-request caps; every QueryRequest's own limits are
  /// tightened against these (the smaller configured value wins).
  AdmissionLimits request_limits;
  /// Durable warm-state directory (car_serve --state-dir). Empty = no
  /// persistence (the default). When set, warm session state is spilled
  /// after each batch / on eviction / at shutdown and restored on Open;
  /// if the directory cannot be opened the server logs a warning and
  /// serves without persistence rather than failing to start.
  std::string state_dir;
  /// Deterministic I/O fault injection for the persistence layer
  /// (tests; CAR_IO_FAULT_INJECT in car_serve): the Nth and every later
  /// store I/O op fails. kNoInjection = real I/O only.
  uint64_t io_fault_after = AdmissionLimits::kNoInjection;
};

struct ServerStats {
  uint64_t requests = 0;
  uint64_t query_batches = 0;
  uint64_t queries = 0;
  /// Query batches degraded by admission control (limit tripped; answers
  /// withheld).
  uint64_t degraded = 0;
  /// Requests answered with an ErrorResponse.
  uint64_t errors = 0;
};

/// The multi-tenant reasoning server: a session cache of warm
/// IncrementalSessions keyed by tenant name, request dispatch, and
/// per-request admission control.
///
/// Handle() is thread-safe: a mutex serializes dispatch, so concurrent
/// transports (one per connection) interleave whole requests.
/// Parallelism *within* a batch comes from the deterministic thread pool
/// inside the session (options.num_threads); because every answer is
/// bit-identical for every thread count, the interleaving order of
/// requests is the only schedule-visible effect, and per-tenant answers
/// depend only on the request sequence of that tenant.
///
/// Overload discipline: admission limits never cause a wrong or partial
/// answer. A tripped limit yields AnswersResponse{degraded=true} with
/// the structured LimitReport and no answers; the warm session survives
/// (its memo only ever holds fully-computed answers).
class Server {
 public:
  explicit Server(ServerOptions options);

  /// Dispatches one request to a response. Never crashes on malformed
  /// input; every failure is an ErrorResponse.
  Response Handle(const Request& request);

  /// True once a ShutdownRequest was handled; transports drain and exit.
  bool shutdown_requested() const {
    return shutdown_.load(std::memory_order_acquire);
  }

  /// Snapshot of the server + cache counters (same data as a
  /// StatsRequest, for in-process callers like the bench driver).
  StatsResponse StatsSnapshot();

 private:
  Response HandleOpen(const std::string& name, std::string_view text);
  Response HandleQuery(const QueryRequest& request);
  Response HandleMutate(const MutateRequest& request);
  Response HandleClose(const CloseRequest& request);
  Response HandleStats();

  /// Wraps a non-OK status; counts it.
  Response MakeError(const Status& status);

  ServerOptions options_;
  std::mutex mutex_;
  /// Fault-injection context the snapshot store routes its I/O through
  /// (configured from options_.io_fault_after; inert otherwise). Must
  /// outlive store_, which borrows it.
  ExecContext io_exec_;
  /// Durable warm-state store; null without --state-dir. Declared before
  /// cache_, which borrows it.
  std::unique_ptr<persist::SnapshotStore> store_;
  SessionCache cache_;
  ServerStats stats_;
  std::atomic<bool> shutdown_{false};
};

/// Runs the blocking frame loop of one connection: reads length-prefixed
/// request frames from `in_fd`, dispatches them to the server, writes
/// response frames to `out_fd`. Returns when the peer closes the stream
/// at a frame boundary (Ok), after answering a ShutdownRequest (Ok),
/// when an idle connection observes a shutdown requested on another
/// connection (Ok — reads poll with a short timeout so drain never hangs
/// on a silent client), or when the stream turns unframeable / the
/// descriptor errors (the error status, after attempting to send a final
/// ErrorResponse frame). Decode errors of individual payloads are
/// answered with ErrorResponse and the connection continues. Responses
/// too large for `max_frame_payload` degrade to a bounded ErrorResponse
/// instead of crashing or killing the connection.
Status ServeStream(Server* server, int in_fd, int out_fd,
                   uint32_t max_frame_payload = kDefaultMaxFramePayload);

}  // namespace serve
}  // namespace car

#endif  // CAR_SERVE_SERVER_H_
