// Shared declarations of the libcar benchmark (see README.md).
//
// The benchmark drives libcar through its two user entry points: the
// car_serve request path (serve::ServeStream over a socketpair, one
// server thread) and the in-process equivalent of a `car_tool check` /
// `car_tool query` invocation. Load comes from one client in a closed
// loop: it waits for each reply before it sends the next request.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "base/exec_context.h"
#include "base/result.h"
#include "reasoner/incremental.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/session_cache.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double MillisSince(Clock::time_point start);
/// Nearest-rank percentile; 0 for an empty sample.
double Percentile(std::vector<double> values, double p);
double Mean(const std::vector<double>& values);

// --- Host speed --------------------------------------------------------------

/// Runs a fixed kernel of the benchmark's own (no libcar code) once and
/// returns its wall time in ms: a reading of how fast the host runs this
/// thread just now. The replay reads it after every op.
double SampleHostMs();
/// The kernel's time on the reference host (a 2.0 GHz Xeon KVM guest in a
/// quiet moment). Reported times are "reference milliseconds": wall times
/// scaled by kReferenceHostMs over the median kernel time of the slice of
/// the run they were taken in.
constexpr double kReferenceHostMs = 0.25;

// --- Inputs ------------------------------------------------------------------

/// A query pool is kPoolWindows windows of EXP-R's 48-query pool; each
/// cold build of a variant asks the next window (see replay.cc).
constexpr int kPoolWindow = 48;
constexpr int kPoolWindows = 5;

/// One schema text and the pool of distinct query lines asked against it.
struct Variant {
  int id = 0;
  std::string label;
  std::string text;
  std::vector<std::string> pool;
};

/// A daemon tenant: the schema variants its opens and mutations visit.
struct Tenant {
  std::string name;
  std::vector<int> variants;
  /// Serve workloads also run the tenant's schemas through the CLI path.
  bool cli = true;
};

struct Inputs {
  std::vector<Variant> variants;
  std::vector<Tenant> tenants;
  /// cli-oneshot: the tenants one round visits, in order.
  std::vector<int> cli_round;
};

/// Generates the workload's inputs from the seed. `root` is the checkout
/// the shipped example schemas are read from (cli-oneshot only).
car::Result<Inputs> MakeInputs(const std::string& workload, uint64_t seed,
                               const std::string& root);

// --- Tracing -----------------------------------------------------------------

/// One timed call into a layer. Ids are unique across tracers (each tracer
/// owns a disjoint id range); `parent` 0 marks a root.
struct Span {
  const char* name = "";
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// In-memory span recorder of one thread. A disabled tracer records
/// nothing, which gives the kComposed replay the traced one's code path.
class Tracer {
 public:
  Tracer(uint64_t id_base, bool enabled) : id_base_(id_base), enabled_(enabled) {}

  /// The id the next Begin will return.
  uint64_t next_id() const { return id_base_ + spans_.size() + 1; }
  /// Opens a span under the innermost open span, or under `parent` when
  /// nothing is open. Returns its id (0 when disabled).
  uint64_t Begin(const char* name, uint64_t request, uint64_t parent = 0);
  void End(uint64_t id);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  uint64_t id_base_;
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<uint64_t> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t request,
             uint64_t parent = 0)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->Begin(name, request, parent) : 0) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  uint64_t id_;
};

// --- The daemon under test ---------------------------------------------------

/// Session counters the traced daemon reads through the public
/// accessors, summed over every server instance of the run.
struct ServeCounters {
  car::serve::SessionCacheStats cache;
  car::IncrementalStats session;
  car::ProgressSnapshot progress;
  double peak_fill = 0.0;
  uint64_t peak_resident_bytes = 0;
  uint64_t batches = 0;
};

/// A daemon on its own thread behind a socketpair. Without a tracer, the
/// thread runs the stock serve::Server under serve::ServeStream. With one,
/// it runs the same layers that serve::Server composes (codec, session
/// cache, query parser, incremental session) with a span around each call
/// when the tracer is enabled.
class Daemon {
 public:
  /// `server_tracer` null = stock server. `counters` (composed server
  /// only) is where the session statistics accumulate.
  Daemon(const car::serve::ServerOptions& options, Tracer* server_tracer,
         ServeCounters* counters);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// One closed-loop round trip: encode, write, wait, read, decode.
  car::Result<car::serve::Response> Call(const car::serve::Request& request,
                                         uint64_t request_id,
                                         Tracer* client_tracer);
  uint64_t frame_bytes() const { return frame_bytes_; }

 private:
  class TracedServer;

  std::unique_ptr<car::serve::Server> server_;
  std::unique_ptr<TracedServer> traced_;
  int client_fd_ = -1;
  int server_fd_ = -1;
  car::serve::FrameReader reader_;
  uint64_t frame_bytes_ = 0;
  /// Request id of the frame in flight, published before the write so the
  /// traced server can parent its spans under the client's span.
  std::atomic<uint64_t> in_flight_{0};
  std::thread thread_;
};

// --- The replay --------------------------------------------------------------

/// One step of a workload trace.
struct Op {
  enum Kind { kOpen, kMutate, kClose, kQuery, kCliCheck, kCliQuery, kRestart };
  Kind kind = kQuery;
  int tenant = -1;
  int variant = -1;
};

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  /// Scratch directory of this run (tenant-churn state dir, trace files).
  std::string scratch_dir;
};

/// Latency samples of one request category, in the order they were taken.
struct Latencies {
  void Add(double sample_ms, uint64_t id) {
    ms.push_back(sample_ms);
    ids.push_back(id);
  }
  std::vector<double> ms;
  /// Per sample, the request's root span id (traced replay).
  std::vector<uint64_t> ids;
};

/// What a replay recorded. Times are wall milliseconds.
struct Samples {
  Latencies open, cold, warm, cli_check, cli_query;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t answered_queries = 0;
  /// Time of every op, and SampleHostMs after it, in the order the ops
  /// ran.
  std::vector<double> op_ms;
  std::vector<double> host_ms;
};

/// Counters the traced replay reads from the CLI path.
struct CliCounters {
  car::IncrementalStats session;
  car::ProgressSnapshot progress;
  double peak_fill = 0.0;
};

/// Answers observed during a replay; the key is computed afterwards,
/// outside every timed region.
struct Observed {
  /// [variant][pool index]: -1 not asked, else the answer.
  std::vector<std::vector<int8_t>> answers;
  /// Per variant: the CLI check verdict ("" = never checked).
  std::vector<std::string> verdicts;
  /// Repeated questions that got a different answer than before.
  uint64_t inconsistent = 0;
};

/// How a replay serves. kStock runs serve::Server untouched (the
/// end-to-end metrics). kComposed and kTraced run the layers serve::Server
/// composes (Daemon::TracedServer) and read the layer counters, with spans
/// off and on: the two sides of the tracing overhead.
enum class ServeMode { kStock, kComposed, kTraced };

/// Replays one workload's op stream against a daemon and the CLI path.
class Replay {
 public:
  Replay(const Inputs& inputs, const RunConfig& config, ServeMode mode);
  ~Replay();
  Replay(const Replay&) = delete;
  Replay& operator=(const Replay&) = delete;

  /// Runs ops until `until` has passed (at the end of a whole round of the
  /// workload, if `whole_rounds`), `hard_stop` passes, or `max_ops` ops
  /// ran.
  void Run(Clock::time_point until, Clock::time_point hard_stop,
           uint64_t max_ops, bool whole_rounds);

  /// Hands over what was recorded since the last call.
  Samples TakeSamples();

  /// Stops the daemon (a restart starts a new one); the counters and
  /// spans below are final once the replay has finished.
  void Finish();

  const Samples& samples() const { return samples_; }
  const Observed& observed() const { return observed_; }
  const std::vector<Span>& client_spans() const {
    return client_tracer_.spans();
  }
  const std::vector<Span>& server_spans() const {
    return server_tracer_.spans();
  }
  const ServeCounters& serve_counters() const { return serve_counters_; }
  const CliCounters& cli_counters() const { return cli_counters_; }
  uint64_t frame_bytes() const { return frame_bytes_; }

 private:
  struct TenantState;
  class Generator;

  void Execute(const Op& op);
  void ServeOpen(const Op& op, bool mutate);
  void ServeQuery(const Op& op);
  void ServeClose(const Op& op);
  void Restart();
  void CliCheck(int variant);
  void CliQuery(int variant, const std::vector<int>& picks);
  car::serve::ServerOptions ServerOptionsFor() const;
  void StartDaemon();
  car::Result<car::serve::Response> Call(const car::serve::Request& request,
                                         double* ms);
  void Record(int variant, int index, bool answer);

  const Inputs& inputs_;
  RunConfig config_;
  ServeMode mode_;
  Tracer client_tracer_;
  /// Written only by the daemon thread, read after it is joined.
  Tracer server_tracer_;
  ServeCounters serve_counters_;
  CliCounters cli_counters_;
  std::unique_ptr<Generator> generator_;
  std::vector<std::unique_ptr<TenantState>> tenants_;
  /// Cold builds per variant so far; build n asks window n mod kPoolWindows.
  std::vector<int> builds_;
  Samples samples_;
  Observed observed_;
  uint64_t next_request_ = 1;
  uint64_t last_request_id_ = 0;
  uint64_t ops_run_ = 0;
  uint64_t frame_bytes_ = 0;
  /// Declared last: destroyed (and its thread joined) first.
  std::unique_ptr<Daemon> daemon_;
};

/// Builds the answer key for everything `observed` holds (eager,
/// from-scratch reasoner, one variant per thread on `threads` threads) and
/// counts disagreements. Returns the number of wrong answers, or an error
/// if the key itself could not be computed.
car::Result<uint64_t> CheckAgainstKey(const Inputs& inputs,
                                      const Observed& observed, int threads);

/// "SAT", "UNKNOWN" or "UNSAT: <classes>" — what `car_tool check` reports.
std::string VerdictString(const car::Schema& schema,
                          const car::SatReport& report);

/// Adds the per-batch statistics deltas and governor progress counters.
void AccumulateSessionStats(const car::IncrementalStats& before,
                            const car::IncrementalStats& after,
                            car::IncrementalStats* total);
void AccumulateProgress(const car::ProgressSnapshot& progress,
                        car::ProgressSnapshot* total, double* peak_fill);

// --- Layer probes and the per-layer table ------------------------------------

/// Times the phases an IncrementalSession hides, once per distinct schema.
struct LayerProbe {
  double parse_ms = 0, analyze_ms = 0, preamble_ms = 0, expansion_ms = 0,
         psi_build_ms = 0, solve_ms = 0, base_solve_ms = 0, encode_ms = 0,
         decode_ms = 0, restore_ms = 0;
  double compounds = 0, snapshot_bytes = 0;
};
car::Result<LayerProbe> ProbeLayers(const Inputs& inputs);

/// Per-layer self time of one request category.
struct LayerShare {
  std::string layer;
  double mean_ms = 0.0;
  double share = 0.0;
};
struct CategoryProfile {
  std::string category;
  size_t requests = 0;
  double mean_latency_ms = 0.0;
  std::vector<LayerShare> layers;
};

/// Joins client and server spans into request trees and attributes each
/// request's latency to layers by self time.
std::vector<CategoryProfile> ProfileCategories(
    const std::vector<Span>& client, const std::vector<Span>& server,
    const std::map<std::string, std::vector<uint64_t>>& categories);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
