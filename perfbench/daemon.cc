// The daemon under test: the stock server, or the same layers composed
// with spans, on a thread behind a socketpair.
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "base/strings.h"
#include "bench.h"
#include "reasoner/query_text.h"

namespace perfbench {

namespace serve = car::serve;

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

car::Status WriteAll(int fd, std::string_view data) {
  size_t written = 0;
  while (written < data.size()) {
    ssize_t n = ::write(fd, data.data() + written, data.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return car::Status(car::StatusCode::kInternal,
                         car::StrCat("write: ", std::strerror(errno)));
    }
    written += static_cast<size_t>(n);
  }
  return car::Status::Ok();
}

/// Reads until `reader` yields one payload. False on EOF or error.
bool ReadFrame(int fd, serve::FrameReader* reader, std::string* payload) {
  char chunk[4096];
  while (true) {
    auto next = reader->Next(payload);
    if (!next.ok()) return false;
    if (next.value()) return true;
    ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    reader->Append(chunk, static_cast<size_t>(n));
  }
}

}  // namespace

void AccumulateSessionStats(const car::IncrementalStats& before,
                            const car::IncrementalStats& after,
                            car::IncrementalStats* total) {
#define PERFBENCH_ADD(field) total->field += after.field - before.field
  PERFBENCH_ADD(queries);
  PERFBENCH_ADD(closure_hits);
  PERFBENCH_ADD(cluster_local);
  PERFBENCH_ADD(memo_hits);
  PERFBENCH_ADD(memo_misses);
  PERFBENCH_ADD(probes);
  PERFBENCH_ADD(warm_starts);
  PERFBENCH_ADD(fallbacks);
  PERFBENCH_ADD(base_builds);
  PERFBENCH_ADD(base_restores);
  PERFBENCH_ADD(lazy_hits);
  PERFBENCH_ADD(lazy_refinement_rounds);
  PERFBENCH_ADD(lazy_compounds_materialized);
  PERFBENCH_ADD(lazy_blocking_constraints);
  PERFBENCH_ADD(lazy_certificate_closures);
  PERFBENCH_ADD(spurious_witnesses);
#undef PERFBENCH_ADD
}

void AccumulateProgress(const car::ProgressSnapshot& p,
                        car::ProgressSnapshot* total, double* peak_fill) {
  total->pivots_executed += p.pivots_executed;
  total->lp_solves += p.lp_solves;
  total->warm_starts += p.warm_starts;
  total->scalar_promotions += p.scalar_promotions;
  total->compounds_enumerated += p.compounds_enumerated;
  if (p.peak_tableau_cells > 0) {
    const double fill = static_cast<double>(p.peak_tableau_nonzeros) /
                        static_cast<double>(p.peak_tableau_cells);
    if (fill > *peak_fill) *peak_fill = fill;
  }
}

// --- Tracer ----------------------------------------------------------------

uint64_t Tracer::Begin(const char* name, uint64_t request, uint64_t parent) {
  if (!enabled_) return 0;
  Span span;
  span.name = name;
  span.id = id_base_ + spans_.size() + 1;
  span.parent = open_.empty() ? parent : open_.back();
  span.request = request;
  span.start_ns = NowNs();
  spans_.push_back(span);
  open_.push_back(span.id);
  return span.id;
}

void Tracer::End(uint64_t id) {
  if (!enabled_) return;
  spans_[id - id_base_ - 1].end_ns = NowNs();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

// --- Traced server -----------------------------------------------------------

/// Mirrors serve::Server dispatch (server.cc) call for call, with a span
/// around each call into a layer and the session counters read through
/// the public accessors. Single connection, single thread.
class Daemon::TracedServer {
 public:
  TracedServer(const serve::ServerOptions& options, Tracer* tracer,
               ServeCounters* counters)
      : options_(options),
        tracer_(tracer),
        counters_(counters),
        store_(OpenStore()),
        cache_(CacheOptions()) {}

  ~TracedServer() {
    const serve::SessionCacheStats& s = cache_.stats();
    serve::SessionCacheStats& t = counters_->cache;
    t.opens += s.opens;
    t.warm_opens += s.warm_opens;
    t.replacements += s.replacements;
    t.evictions += s.evictions;
    t.lookup_hits += s.lookup_hits;
    t.lookup_misses += s.lookup_misses;
    t.restores += s.restores;
    t.restore_failures += s.restore_failures;
    t.spills += s.spills;
    t.spill_failures += s.spill_failures;
    t.spill_ineligible += s.spill_ineligible;
  }

  /// The frame loop of one connection; returns at EOF or after Shutdown.
  void Serve(int fd, const std::atomic<uint64_t>* in_flight) {
    serve::FrameReader reader;
    std::string payload;
    while (ReadFrame(fd, &reader, &payload)) {
      const uint64_t request = in_flight->load(std::memory_order_acquire);
      ScopedSpan root(tracer_, "serve.request", request, request);
      car::Result<serve::Request> decoded = car::InvalidArgument("unset");
      {
        ScopedSpan span(tracer_, "serve.decode", request);
        decoded = serve::DecodeRequest(payload);
      }
      serve::Response response =
          decoded.ok() ? Handle(decoded.value(), request)
                       : serve::Response(serve::ErrorResponse{
                             decoded.status().code(),
                             decoded.status().message()});
      std::string frame;
      {
        ScopedSpan span(tracer_, "serve.encode", request);
        auto encoded = serve::EncodeFrame(serve::EncodeResponse(response));
        if (!encoded.ok()) return;
        frame = std::move(encoded.value());
      }
      {
        ScopedSpan span(tracer_, "serve.write", request);
        if (!WriteAll(fd, frame).ok()) return;
      }
      if (shutdown_) return;
    }
  }

 private:
  std::unique_ptr<car::persist::SnapshotStore> OpenStore() {
    if (options_.state_dir.empty()) return nullptr;
    car::persist::SnapshotStoreOptions store_options;
    store_options.exec = &io_exec_;
    auto store =
        car::persist::SnapshotStore::Open(options_.state_dir, store_options);
    if (!store.ok()) return nullptr;
    return std::move(store.value());
  }

  serve::SessionCacheOptions CacheOptions() {
    serve::SessionCacheOptions cache_options;
    cache_options.max_sessions = options_.max_sessions;
    cache_options.memory_budget_bytes = options_.memory_budget_bytes;
    cache_options.reasoner.num_threads = options_.num_threads;
    cache_options.reasoner.prefilter = options_.prefilter;
    cache_options.reasoner.lazy_expansion = options_.lazy_expansion;
    cache_options.store = store_.get();
    return cache_options;
  }

  serve::Response Error(const car::Status& status) {
    return serve::ErrorResponse{status.code(), status.message()};
  }

  serve::Response Handle(const serve::Request& request, uint64_t id) {
    if (const auto* open = std::get_if<serve::OpenRequest>(&request)) {
      return Open(open->name, open->schema_text, id);
    }
    if (const auto* query = std::get_if<serve::QueryRequest>(&request)) {
      return Query(*query, id);
    }
    if (const auto* mutate = std::get_if<serve::MutateRequest>(&request)) {
      {
        ScopedSpan span(tracer_, "serve.session_cache.find", id);
        if (cache_.Find(mutate->name) == nullptr) {
          return Error(car::NotFound("tenant is not open"));
        }
      }
      return Open(mutate->name, mutate->schema_text, id);
    }
    if (const auto* close = std::get_if<serve::CloseRequest>(&request)) {
      return serve::ClosedResponse{cache_.Close(close->name)};
    }
    if (std::holds_alternative<serve::ShutdownRequest>(request)) {
      {
        ScopedSpan span(tracer_, "serve.session_cache.spill", id);
        cache_.SpillAll();
      }
      shutdown_ = true;
      return serve::ShuttingDownResponse{};
    }
    return Error(car::InvalidArgument("request kind not replayed"));
  }

  serve::Response Open(const std::string& name, std::string_view text,
                       uint64_t id) {
    bool warm = false;
    car::Result<serve::SessionEntry*> opened = nullptr;
    {
      ScopedSpan span(tracer_, "serve.session_cache.open", id);
      opened = cache_.Open(name, text, &warm);
    }
    if (!opened.ok()) return Error(opened.status());
    NoteResident();
    const serve::SessionEntry& entry = *opened.value();
    serve::OpenedResponse response;
    response.fingerprint = entry.fingerprint;
    response.num_classes = static_cast<uint32_t>(entry.schema->num_classes());
    response.num_relations =
        static_cast<uint32_t>(entry.schema->num_relations());
    response.warm = warm;
    return response;
  }

  serve::Response Query(const serve::QueryRequest& request, uint64_t id) {
    serve::SessionEntry* entry = nullptr;
    {
      ScopedSpan span(tracer_, "serve.session_cache.find", id);
      entry = cache_.Find(request.name);
    }
    if (entry == nullptr) return Error(car::NotFound("tenant is not open"));
    std::vector<car::ImplicationQuery> queries;
    queries.reserve(request.queries.size());
    for (const std::string& line : request.queries) {
      ScopedSpan span(tracer_, "reasoner.query_parse", id);
      auto parsed = car::ParseQueryTokens(*entry->schema,
                                          car::TokenizeQueryLine(line));
      if (!parsed.ok()) return Error(parsed.status());
      queries.push_back(std::move(parsed.value()));
    }
    car::ExecContext exec;
    car::AdmissionLimits::Tighten(options_.request_limits,
                                         request.limits)
        .ConfigureContext(&exec);
    const car::IncrementalStats before = entry->session->stats();
    car::Result<std::vector<bool>> answers = std::vector<bool>();
    {
      ScopedSpan span(tracer_, "reasoner.batch", id);
      entry->session->set_exec(&exec);
      answers = entry->session->RunImplicationBatch(queries);
      entry->session->set_exec(nullptr);
    }
    {
      ScopedSpan span(tracer_, "serve.session_cache.update_cost", id);
      cache_.UpdateCost(entry);
    }
    {
      ScopedSpan span(tracer_, "serve.session_cache.spill", id);
      cache_.Spill(entry);
    }
    NoteResident();
    AccumulateSessionStats(before, entry->session->stats(),
                           &counters_->session);
    AccumulateProgress(exec.progress(), &counters_->progress,
                       &counters_->peak_fill);
    ++counters_->batches;

    serve::AnswersResponse response;
    if (!answers.ok()) {
      if (!exec.tripped()) return Error(answers.status());
      response.degraded = true;
      return response;
    }
    for (bool answer : answers.value()) {
      response.answers.push_back(answer ? 1 : 0);
    }
    return response;
  }

  void NoteResident() {
    counters_->peak_resident_bytes =
        std::max(counters_->peak_resident_bytes, cache_.resident_bytes());
  }

  serve::ServerOptions options_;
  Tracer* tracer_;
  ServeCounters* counters_;
  car::ExecContext io_exec_;
  std::unique_ptr<car::persist::SnapshotStore> store_;
  serve::SessionCache cache_;
  bool shutdown_ = false;
};

// --- Daemon ------------------------------------------------------------------

Daemon::Daemon(const serve::ServerOptions& options, Tracer* server_tracer,
               ServeCounters* counters) {
  int fds[2];
  CAR_CHECK(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0);
  client_fd_ = fds[0];
  server_fd_ = fds[1];
  if (server_tracer == nullptr) {
    server_ = std::make_unique<serve::Server>(options);
    thread_ = std::thread([this] {
      (void)serve::ServeStream(server_.get(), server_fd_, server_fd_);
    });
  } else {
    traced_ =
        std::make_unique<TracedServer>(options, server_tracer, counters);
    thread_ = std::thread([this] { traced_->Serve(server_fd_, &in_flight_); });
  }
}

Daemon::~Daemon() {
  // EOF ends the frame loop; the thread must be joined before the server
  // it uses is destroyed.
  ::shutdown(client_fd_, SHUT_RDWR);
  thread_.join();
  ::close(client_fd_);
  ::close(server_fd_);
}

car::Result<serve::Response> Daemon::Call(const serve::Request& request,
                                          uint64_t request_id,
                                          Tracer* client_tracer) {
  std::string frame;
  {
    ScopedSpan span(client_tracer, "client.encode", request_id);
    CAR_ASSIGN_OR_RETURN(frame,
                         serve::EncodeFrame(serve::EncodeRequest(request)));
  }
  frame_bytes_ += frame.size();
  in_flight_.store(request_id, std::memory_order_release);
  CAR_RETURN_IF_ERROR(WriteAll(client_fd_, frame));
  std::string payload;
  if (!ReadFrame(client_fd_, &reader_, &payload)) {
    return car::Status(car::StatusCode::kInternal, "daemon hung up");
  }
  frame_bytes_ += payload.size() + 4;
  ScopedSpan span(client_tracer, "client.decode", request_id);
  return serve::DecodeResponse(payload);
}

}  // namespace perfbench
