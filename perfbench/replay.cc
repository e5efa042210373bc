// The workload traces and the closed-loop client that replays them.
#include <algorithm>
#include <deque>
#include <string>
#include <unordered_map>

#include "base/strings.h"
#include "bench.h"
#include "frontend/parser.h"
#include "reasoner/query_text.h"
#include "reasoner/reasoner.h"

namespace perfbench {

namespace serve = car::serve;

namespace {

/// The serving trace follows EXP-R (bench/bench_serve.cc, EXPERIMENTS.md):
/// per tenant, 16 rounds of one 16-query batch each, a cold (re)build at
/// rounds 0, 8 and 12 and a warm re-open at round 4. Batch b since the
/// tenant's last cold build asks entries (7b + 3i) mod 48, i < 16, of a
/// 48-query window of the pool: EXP-R's pick rule and pool size. So the
/// first three batches after a cold build ask the three residue classes
/// mod 3 once each (one cold batch, then two all-fresh warm batches) and
/// every later batch repeats one of them (all memo hits): per epoch 3 cold,
/// 6 fresh and 7 memo-hit batches, as in EXP-R. Successive cold builds of
/// a variant take successive windows, so a run asks kPoolWindows times as
/// many distinct queries as EXP-R and its percentiles depend less on
/// which queries one seed happened to draw.
constexpr int kBatch = 16;
constexpr int kEpochRounds = 16;
constexpr int kReopenRound = 4;
constexpr int kMutateRounds[] = {8, 12};
/// Tenant churn: resident sessions, and visits per cycle (two hot tenants
/// and seven cold ones; see RefillChurn).
constexpr uint64_t kChurnMaxSessions = 3;
constexpr int kChurnCycle = 21;
/// Fixed work of the host-speed kernel (see SampleHostMs).
constexpr int kKernelKeys = 1000;

}  // namespace

double SampleHostMs() {
  // Builds and probes a hash map keyed by short strings: allocation,
  // hashing and pointer chasing, the mix of work the reasoner's own code
  // does (it tracked a fixed libcar workload across host slowdowns better
  // than sorting or a table walk did), but none of its code, so a change
  // to libcar cannot change the reading.
  static volatile uint64_t sink = 0;
  const Clock::time_point start = Clock::now();
  std::unordered_map<std::string, int> map;
  uint64_t h = 3;
  for (int i = 0; i < kKernelKeys; ++i) {
    h = h * 6364136223846793005ull + 1442695040888963407ull;
    map[std::to_string(h >> 44)] += i;
  }
  for (int i = 0; i < kKernelKeys; ++i) {
    h = h * 6364136223846793005ull + 1442695040888963407ull;
    auto it = map.find(std::to_string(h >> 44));
    if (it != map.end()) h ^= static_cast<uint64_t>(it->second);
  }
  sink = h + map.size();
  return MillisSince(start);
}

/// Deterministic op stream of one workload. It depends only on the
/// inputs, so the traced and untraced replays run the same ops.
class Replay::Generator {
 public:
  Generator(const Inputs& inputs, const std::string& workload)
      : inputs_(inputs),
        workload_(workload),
        churn_variant_(inputs.tenants.size(), 0) {}

  /// True between whole rounds: every tenant has run the same number of
  /// whole epochs (or visits) since the start.
  bool AtCycleStart() const { return queue_.empty(); }

  Op Next() {
    if (queue_.empty()) Refill();
    Op op = queue_.front();
    queue_.pop_front();
    return op;
  }

 private:
  /// One EXP-R epoch of a serve tenant. Its three cold builds visit the
  /// tenant's variants in turn; after each cold batch the same schema and
  /// queries go through the CLI path (if the tenant takes it), for the
  /// lazy-vs-eager comparison on identical inputs.
  std::vector<Op> Epoch(int t, int epoch) const {
    const Tenant& tenant = inputs_.tenants[t];
    const int n = static_cast<int>(tenant.variants.size());
    int build = 0;
    int v = tenant.variants[(3 * epoch) % n];
    std::vector<Op> ops;
    ops.push_back(Op{epoch == 0 ? Op::kOpen : Op::kMutate, t, v});
    for (int round = 0; round < kEpochRounds; ++round) {
      const bool cold = round == 0 || round == kMutateRounds[0] ||
                        round == kMutateRounds[1];
      if (round == kReopenRound) ops.push_back(Op{Op::kOpen, t, v});
      if (round != 0 && cold) {
        v = tenant.variants[(3 * epoch + ++build) % n];
        ops.push_back(Op{Op::kMutate, t, v});
      }
      ops.push_back(Op{Op::kQuery, t, v});
      if (cold && tenant.cli) {
        ops.push_back(Op{Op::kCliCheck, t, v});
        ops.push_back(Op{Op::kCliQuery, t, v});
      }
    }
    return ops;
  }

  void Refill() {
    if (workload_ == "cli-oneshot") {
      RefillCli();
    } else if (workload_ == "tenant-churn") {
      RefillChurn();
    } else {
      RefillEpochs();
    }
    ++round_;
  }

  /// Tenants take turns op by op, so every tenant's epoch interleaves
  /// with the others as multi-tenant traffic does.
  void RefillEpochs() {
    std::vector<std::vector<Op>> epochs;
    size_t steps = 0;
    for (size_t t = 0; t < inputs_.tenants.size(); ++t) {
      epochs.push_back(Epoch(static_cast<int>(t), round_));
      steps = std::max(steps, epochs.back().size());
    }
    for (size_t step = 0; step < steps; ++step) {
      for (const auto& epoch : epochs) {
        if (step < epoch.size()) queue_.push_back(epoch[step]);
      }
    }
  }

  /// Each schema used the daemon's one-shot way and as one `check` and
  /// one `query` invocation, the query asking the very batch the daemon
  /// answered cold. The one-shot client opens cold, asks the three batches
  /// that cover its 48-query window (cold, fresh, fresh), repeats three of
  /// them (memo hits, as later EXP-R rounds do) and closes.
  void RefillCli() {
    for (int t : inputs_.cli_round) {
      const int v = inputs_.tenants[t].variants[0];
      for (Op::Kind kind :
           {Op::kOpen, Op::kQuery, Op::kCliCheck, Op::kCliQuery, Op::kQuery,
            Op::kQuery, Op::kQuery, Op::kQuery, Op::kQuery, Op::kClose}) {
        queue_.push_back(Op{kind, t, v});
      }
    }
  }

  /// One visit of the churn cycle. The cycle is (hot 0, hot 1, cold i)
  /// for i = 0..6: with three session slots the two hot tenants stay
  /// resident and every cold tenant is evicted before it comes back, so
  /// its open rebuilds (or restores) cold. Each hot tenant mutates once a
  /// cycle, the cold tenants alternate their variant on every visit, and
  /// the daemon restarts over its state dir at the end of the cycle.
  void RefillChurn() {
    const int k = round_ % kChurnCycle;
    const int slot = k % 3;
    const int t = slot < 2 ? slot : 2 + k / 3;
    const Tenant& tenant = inputs_.tenants[t];
    int& current = churn_variant_[t];
    queue_.push_back(Op{Op::kOpen, t, tenant.variants[current]});
    if ((slot == 0 && k / 3 == 3) || (slot == 1 && k / 3 == 5)) {
      current = 1 - current;
      queue_.push_back(Op{Op::kMutate, t, tenant.variants[current]});
    }
    queue_.push_back(Op{Op::kQuery, t, tenant.variants[current]});
    queue_.push_back(Op{Op::kQuery, t, tenant.variants[current]});
    if (slot == 2) {
      queue_.push_back(Op{Op::kCliCheck, t, tenant.variants[current]});
      queue_.push_back(Op{Op::kCliQuery, t, tenant.variants[current]});
      current = 1 - current;
    }
    if (k == kChurnCycle - 1) queue_.push_back(Op{Op::kRestart, -1, -1});
  }

  const Inputs& inputs_;
  std::string workload_;
  std::deque<Op> queue_;
  int round_ = 0;
  std::vector<int> churn_variant_;
};

/// The client's view of one tenant.
struct Replay::TenantState {
  /// Pool offset of the window the session asks since its last cold build.
  int window = 0;
  /// Query batches since the last cold build; batch b asks the picks of b.
  int batches = 0;
  /// The next batch is the first since a cold (re)build.
  bool next_cold = true;
  /// Pool indexes of the last cold batch (the CLI query asks the same).
  std::vector<int> last_cold;
};

Replay::Replay(const Inputs& inputs, const RunConfig& config, ServeMode mode)
    : inputs_(inputs),
      config_(config),
      mode_(mode),
      client_tracer_(0, mode == ServeMode::kTraced),
      server_tracer_(1ull << 40, mode == ServeMode::kTraced),
      generator_(std::make_unique<Generator>(inputs, config.workload)),
      builds_(inputs.variants.size(), 0) {
  for (size_t t = 0; t < inputs.tenants.size(); ++t) {
    tenants_.push_back(std::make_unique<TenantState>());
  }
  observed_.answers.resize(inputs.variants.size());
  for (const Variant& v : inputs.variants) {
    observed_.answers[v.id].assign(v.pool.size(), -1);
  }
  observed_.verdicts.resize(inputs.variants.size());
  StartDaemon();
}

Replay::~Replay() { Finish(); }

void Replay::Finish() {
  if (daemon_ == nullptr) return;
  frame_bytes_ += daemon_->frame_bytes();
  daemon_.reset();
}

serve::ServerOptions Replay::ServerOptionsFor() const {
  // The shipped car_serve defaults: lazy expansion, prefilter on, one
  // thread per batch, 64 sessions, no state dir.
  serve::ServerOptions options;
  if (config_.workload == "tenant-churn") {
    options.max_sessions = kChurnMaxSessions;
    options.state_dir = config_.scratch_dir + "/state";
  }
  return options;
}

void Replay::StartDaemon() {
  daemon_ = std::make_unique<Daemon>(
      ServerOptionsFor(),
      mode_ == ServeMode::kStock ? nullptr : &server_tracer_,
      &serve_counters_);
}

void Replay::Restart() {
  // Graceful restart: the shutdown request spills every dirty session,
  // then a new daemon recovers from the same state dir.
  double ms = 0.0;
  (void)Call(serve::ShutdownRequest{}, &ms);
  Finish();
  StartDaemon();
}

car::Result<serve::Response> Replay::Call(const serve::Request& request,
                                          double* ms) {
  const uint64_t id = mode_ == ServeMode::kTraced ? client_tracer_.next_id()
                                                 : next_request_++;
  const Clock::time_point start = Clock::now();
  car::Result<serve::Response> response = car::InvalidArgument("unset");
  {
    ScopedSpan root(&client_tracer_, "client.request", id);
    response = daemon_->Call(request, id, &client_tracer_);
  }
  *ms = MillisSince(start);
  last_request_id_ = id;
  return response;
}

void Replay::Run(Clock::time_point until, Clock::time_point hard_stop,
                 uint64_t max_ops, bool whole_rounds) {
  while (ops_run_ < max_ops) {
    const Clock::time_point now = Clock::now();
    if (now >= hard_stop ||
        (now >= until && (!whole_rounds || generator_->AtCycleStart()))) {
      break;
    }
    const Op op = generator_->Next();
    ++samples_.attempted;
    Execute(op);
    samples_.op_ms.push_back(MillisSince(now));
    samples_.host_ms.push_back(SampleHostMs());
    ++ops_run_;
  }
}

Samples Replay::TakeSamples() {
  Samples taken = std::move(samples_);
  samples_ = Samples();
  return taken;
}

void Replay::Execute(const Op& op) {
  switch (op.kind) {
    case Op::kOpen:
    case Op::kMutate:
      ServeOpen(op, op.kind == Op::kMutate);
      break;
    case Op::kQuery:
      ServeQuery(op);
      break;
    case Op::kClose:
      ServeClose(op);
      break;
    case Op::kCliCheck:
      CliCheck(op.variant);
      break;
    case Op::kCliQuery:
      CliQuery(op.variant, tenants_[op.tenant]->last_cold);
      break;
    case Op::kRestart:
      Restart();
      break;
  }
}

void Replay::ServeOpen(const Op& op, bool mutate) {
  const Tenant& tenant = inputs_.tenants[op.tenant];
  const std::string& text = inputs_.variants[op.variant].text;
  serve::Request request;
  if (mutate) {
    request = serve::MutateRequest{tenant.name, text};
  } else {
    request = serve::OpenRequest{tenant.name, text};
  }
  double ms = 0.0;
  auto response = Call(request, &ms);
  const auto* opened =
      response.ok() ? std::get_if<serve::OpenedResponse>(&response.value())
                    : nullptr;
  if (opened == nullptr) {
    ++samples_.failed;
    return;
  }
  // A cold build (or restore) starts an empty memo: the next batch is a
  // cold batch.
  if (!opened->warm) {
    TenantState& state = *tenants_[op.tenant];
    state.next_cold = true;
    state.batches = 0;
    state.window = kPoolWindow * (builds_[op.variant]++ % kPoolWindows);
  }
  samples_.open.Add(ms, last_request_id_);
}

void Replay::ServeClose(const Op& op) {
  double ms = 0.0;
  auto response =
      Call(serve::CloseRequest{inputs_.tenants[op.tenant].name}, &ms);
  if (!response.ok() ||
      !std::holds_alternative<serve::ClosedResponse>(response.value())) {
    ++samples_.failed;
  }
}

void Replay::ServeQuery(const Op& op) {
  TenantState& state = *tenants_[op.tenant];
  const Variant& variant = inputs_.variants[op.variant];
  const int size = static_cast<int>(variant.pool.size());
  std::vector<int> picks;
  for (int i = 0; i < kBatch; ++i) {
    picks.push_back(
        (state.window + (7 * state.batches + 3 * i) % kPoolWindow) % size);
  }
  ++state.batches;
  const bool cold = state.next_cold;
  if (cold) state.last_cold = picks;

  serve::QueryRequest request;
  request.name = inputs_.tenants[op.tenant].name;
  for (int p : picks) request.queries.push_back(variant.pool[p]);
  double ms = 0.0;
  auto response = Call(request, &ms);
  const auto* answers =
      response.ok() ? std::get_if<serve::AnswersResponse>(&response.value())
                    : nullptr;
  if (answers == nullptr || answers->degraded ||
      answers->answers.size() != picks.size()) {
    ++samples_.failed;
    return;
  }
  state.next_cold = false;
  for (size_t i = 0; i < picks.size(); ++i) {
    Record(op.variant, picks[i], answers->answers[i] == 1);
  }
  samples_.answered_queries += picks.size();
  if (cold) {
    samples_.cold.Add(ms, last_request_id_);
  } else {
    samples_.warm.Add(ms, last_request_id_);
  }
}

void Replay::Record(int variant, int index, bool answer) {
  int8_t& slot = observed_.answers[variant][index];
  const int8_t value = answer ? 1 : 0;
  if (slot >= 0 && slot != value) ++observed_.inconsistent;
  slot = value;
}

// --- The CLI path --------------------------------------------------------------
// In-process equivalents of `car_tool check FILE` and `car_tool query
// --queries=FILE FILE` under the CLI defaults: eager, one thread, a
// governor with no limits configured, incremental query batches. The
// schema text is already in memory, so file reads are not timed.

void Replay::CliCheck(int v) {
  const Variant& variant = inputs_.variants[v];
  Tracer* tracer = &client_tracer_;
  const uint64_t id = client_tracer_.next_id();
  const Clock::time_point start = Clock::now();
  std::string verdict;
  {
    ScopedSpan root(tracer, "cli.check", id);
    car::ExecContext exec;
    car::Result<car::Schema> schema = car::InvalidArgument("unset");
    {
      ScopedSpan span(tracer, "frontend.parse", id);
      schema = car::ParseSchema(variant.text);
    }
    if (schema.ok()) {
      car::ReasonerOptions options;
      options.exec = &exec;
      car::Reasoner reasoner(&schema.value(), options);
      car::Result<car::SatReport> report = car::InvalidArgument("unset");
      {
        ScopedSpan span(tracer, "reasoner.check", id);
        report = reasoner.CheckSchema();
      }
      if (report.ok()) verdict = VerdictString(schema.value(), report.value());
      AccumulateProgress(exec.progress(), &cli_counters_.progress,
                         &cli_counters_.peak_fill);
    }
  }
  const double ms = MillisSince(start);
  if (verdict.empty() || verdict == "UNKNOWN") {
    ++samples_.failed;
    return;
  }
  std::string& seen = observed_.verdicts[v];
  if (!seen.empty() && seen != verdict) ++observed_.inconsistent;
  seen = verdict;
  samples_.cli_check.Add(ms, id);
}

void Replay::CliQuery(int v, const std::vector<int>& picks) {
  const Variant& variant = inputs_.variants[v];
  std::string query_text;
  for (int p : picks) query_text += variant.pool[p] + "\n";
  Tracer* tracer = &client_tracer_;
  const uint64_t id = client_tracer_.next_id();
  const Clock::time_point start = Clock::now();
  car::Result<std::vector<bool>> answers = car::InvalidArgument("unset");
  {
    ScopedSpan root(tracer, "cli.query", id);
    car::ExecContext exec;
    car::Result<car::Schema> schema = car::InvalidArgument("unset");
    {
      ScopedSpan span(tracer, "frontend.parse", id);
      schema = car::ParseSchema(variant.text);
    }
    if (schema.ok()) {
      car::Result<std::vector<car::ImplicationQuery>> queries =
          car::InvalidArgument("unset");
      {
        ScopedSpan span(tracer, "cli.query_parse", id);
        queries = car::ParseQueryText(schema.value(), query_text);
      }
      if (queries.ok()) {
        car::ReasonerOptions options;
        options.exec = &exec;
        options.incremental = true;
        car::Reasoner reasoner(&schema.value(), options);
        {
          ScopedSpan span(tracer, "cli.batch", id);
          answers = reasoner.RunImplicationBatch(queries.value());
        }
        if (const car::IncrementalSession* session =
                reasoner.incremental_session()) {
          AccumulateSessionStats(car::IncrementalStats(), session->stats(),
                                 &cli_counters_.session);
        }
        AccumulateProgress(exec.progress(), &cli_counters_.progress,
                           &cli_counters_.peak_fill);
      }
    }
  }
  const double ms = MillisSince(start);
  if (!answers.ok() || answers.value().size() != picks.size()) {
    ++samples_.failed;
    return;
  }
  for (size_t i = 0; i < picks.size(); ++i) {
    Record(v, picks[i], answers.value()[i]);
  }
  samples_.answered_queries += picks.size();
  samples_.cli_query.Add(ms, id);
}

}  // namespace perfbench
