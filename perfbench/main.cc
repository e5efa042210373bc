// The libcar benchmark program. See README.md for the workloads and
// metrics; run it through run.py, which builds it first.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1
//             --root DIR --scratch DIR --trace-dir DIR
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// replays a fixed prefix of the same trace twice, untraced and traced,
// and reports the per-layer metrics, the tracing overhead and the
// per-layer self-time table. The last stdout line is one JSON object.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "base/strings.h"
#include "bench.h"
#include "frontend/parser.h"
#include "reasoner/reasoner.h"

namespace perfbench {
namespace {

/// Slices of the measured window, and set-ups timed after each slice;
/// setup_s is the median of all of them.
constexpr int kSlices = 10;
constexpr int kSetupsPerSlice = 2;
/// Untimed replay before the measured window (allocator, page cache).
constexpr double kWarmupSeconds = 1.0;
/// Spans-off/spans-on pairs the traced run replays to measure the overhead;
/// even, so each side runs first equally often.
constexpr int kOverheadRounds = 4;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  int trace = 0;
  std::string root = ".";
  std::string scratch = ".bench_build/perfbench-run";
  std::string trace_dir = ".bench_build/perfbench-traces";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      if (*end != '\0' || args->seconds < 1) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--root") {
      args->root = value;
    } else if (flag == "--scratch") {
      args->scratch = value;
    } else if (flag == "--trace-dir") {
      args->trace_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty();
}

/// The result line, with metrics in the order they were added.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  std::string Render(bool correct, uint64_t attempted, uint64_t failed) const {
    std::string out = car::StrCat("{\"correct\": ", correct ? "true" : "false",
                                  ", \"attempted\": ", attempted,
                                  ", \"failed\": ", failed,
                                  ", \"metrics\": {");
    for (size_t i = 0; i < metrics_.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g", metrics_[i].value);
      out += car::StrCat(i == 0 ? "" : ", ", "\"", metrics_[i].name,
                         "\": {\"value\": ", value, ", \"unit\": \"",
                         metrics_[i].unit, "\"}");
    }
    return out + "}}";
  }
  void Print() const {
    for (const Metric& m : metrics_) {
      std::printf("  %-40s %14.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

double PeakRssMb() {
  struct rusage usage = {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

void ResetScratch(const std::string& dir) {
  std::error_code error;
  std::filesystem::remove_all(dir, error);
  std::filesystem::create_directories(dir, error);
}

RunConfig ConfigFor(const Args& args) {
  RunConfig config;
  config.workload = args.workload;
  config.seed = args.seed;
  config.scratch_dir = args.scratch;
  return config;
}

/// The CPUs the process may use, saved before PinToOneCpu narrows them.
cpu_set_t g_allowed_cpus;

/// Checks both answer sets; prints and returns the number of wrong ones.
/// The timed work is over by then, so the key runs on every allowed CPU,
/// up to 4.
uint64_t WrongAnswers(const Inputs& inputs, const Observed& observed) {
  (void)sched_setaffinity(0, sizeof(g_allowed_cpus), &g_allowed_cpus);
  auto wrong = CheckAgainstKey(inputs, observed,
                               std::clamp(CPU_COUNT(&g_allowed_cpus), 1, 4));
  if (!wrong.ok()) {
    std::fprintf(stderr, "answer key: %s\n",
                 wrong.status().ToString().c_str());
    return 1;
  }
  return wrong.value();
}

// --- --trace 0 -------------------------------------------------------------

/// One set-up: generate the inputs from the seed and bring up the daemon
/// behind its socketpair. Returns the wall seconds it took.
double SetUp(const Args& args, const std::string& scratch,
             std::unique_ptr<Inputs>* inputs, std::unique_ptr<Replay>* replay) {
  const Clock::time_point start = Clock::now();
  auto made = MakeInputs(args.workload, args.seed, args.root);
  if (!made.ok()) {
    std::fprintf(stderr, "inputs: %s\n", made.status().ToString().c_str());
    std::exit(2);
  }
  *inputs = std::make_unique<Inputs>(std::move(made.value()));
  RunConfig config = ConfigFor(args);
  config.scratch_dir = scratch;
  *replay = std::make_unique<Replay>(**inputs, config, ServeMode::kStock);
  return MillisSince(start) / 1000.0;
}

/// Scales a slice's times to the reference host (see kReferenceHostMs).
/// Returns the factor.
double ToReferenceHost(Samples* s) {
  const double factor = kReferenceHostMs / Percentile(s->host_ms, 50);
  for (Latencies* l : {&s->open, &s->cold, &s->warm, &s->cli_check,
                       &s->cli_query}) {
    for (double& ms : l->ms) ms *= factor;
  }
  for (double& ms : s->op_ms) ms *= factor;
  return factor;
}

/// Appends the samples and counts of `from` to `to`.
void Merge(const Samples& from, Samples* to) {
  for (auto field : {&Samples::open, &Samples::cold, &Samples::warm,
                     &Samples::cli_check, &Samples::cli_query}) {
    const std::vector<double>& ms = (from.*field).ms;
    (to->*field).ms.insert((to->*field).ms.end(), ms.begin(), ms.end());
  }
  to->op_ms.insert(to->op_ms.end(), from.op_ms.begin(), from.op_ms.end());
  to->attempted += from.attempted;
  to->failed += from.failed;
  to->answered_queries += from.answered_queries;
}

double Sum(const std::vector<double>& values) {
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum;
}

int RunUntraced(const Args& args) {
  ResetScratch(args.scratch);
  std::unique_ptr<Inputs> inputs;
  std::unique_ptr<Replay> replay;
  SetUp(args, args.scratch, &inputs, &replay);
  const auto hard_stop = Clock::now() + std::chrono::seconds(
                                            2 * args.seconds + 30);
  replay->Run(Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(kWarmupSeconds)),
              hard_stop, UINT64_MAX, true);
  Samples total = replay->TakeSamples();  // Warm-up: counted, not timed.

  // The measured window: whole workload rounds, cut into kSlices slices
  // of equal wall time (the last one ends at a round's end). The
  // host's speed drifts by up to 2x over seconds to minutes (other virtual
  // machines share it) without showing as steal or lost CPU time, so each
  // slice's times are scaled by the host-speed kernel read between its ops.
  // After each slice a few set-ups are timed (into their own scratch dir,
  // then torn down) and scaled by the same factor, so their median spans
  // the whole run.
  Samples measured;
  std::vector<double> setup_s;
  const std::string setup_scratch = args.scratch + "/setup";
  ResetScratch(setup_scratch);
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < kSlices; ++i) {
    replay->Run(start + std::chrono::milliseconds(1000 * args.seconds *
                                                  (i + 1) / kSlices),
                hard_stop, UINT64_MAX, i == kSlices - 1);
    Samples slice = replay->TakeSamples();
    const double factor = ToReferenceHost(&slice);
    std::printf("slice %d: host factor %.3f, %zu ops, %.2f reference s\n", i,
                factor, slice.op_ms.size(), Sum(slice.op_ms) / 1000.0);
    Merge(slice, &measured);
    for (int j = 0; j < kSetupsPerSlice; ++j) {
      std::unique_ptr<Inputs> other_inputs;
      std::unique_ptr<Replay> other;
      setup_s.push_back(factor *
                        SetUp(args, setup_scratch, &other_inputs, &other));
    }
  }
  const double rss_mb = PeakRssMb();
  replay->Finish();
  const Clock::time_point key_start = Clock::now();
  const uint64_t wrong = WrongAnswers(*inputs, replay->observed());
  std::printf("answer key: %.1f s\n", MillisSince(key_start) / 1000.0);
  total.attempted += measured.attempted;
  total.failed += measured.failed;

  const double measured_ms = Sum(measured.op_ms);
  std::printf("%s seed %llu: %llu wrong answers\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(wrong));
  for (const auto& [name, l] :
       {std::pair{"open", &measured.open}, std::pair{"cold", &measured.cold},
        std::pair{"warm", &measured.warm},
        std::pair{"cli check", &measured.cli_check},
        std::pair{"cli query", &measured.cli_query}}) {
    std::printf("%-9s n=%-5zu %5.1f%% of the window\n", name, l->ms.size(),
                100.0 * Sum(l->ms) / measured_ms);
  }
  Report result;
  result.Add("setup_s", Percentile(setup_s, 50), "s");
  result.Add("batch_cold_p50_ms", Percentile(measured.cold.ms, 50), "ms");
  result.Add("batch_cold_p90_ms", Percentile(measured.cold.ms, 90), "ms");
  result.Add("batch_warm_p50_ms", Percentile(measured.warm.ms, 50), "ms");
  result.Add("batch_warm_p95_ms", Percentile(measured.warm.ms, 95), "ms");
  result.Add("open_p50_ms", Percentile(measured.open.ms, 50), "ms");
  result.Add("open_p90_ms", Percentile(measured.open.ms, 90), "ms");
  result.Add("queries_per_s",
             1000.0 * static_cast<double>(measured.answered_queries) /
                 measured_ms,
             "1/s");
  result.Add("cli_check_p50_ms", Percentile(measured.cli_check.ms, 50), "ms");
  result.Add("cli_check_p90_ms", Percentile(measured.cli_check.ms, 90), "ms");
  result.Add("cli_query_p50_ms", Percentile(measured.cli_query.ms, 50), "ms");
  result.Add("peak_rss_mb", rss_mb, "MB");
  result.Print();
  std::filesystem::remove_all(args.scratch);
  std::printf("%s\n",
              result.Render(wrong == 0, total.attempted, total.failed).c_str());
  return 0;
}

// --- --trace 1 -------------------------------------------------------------

/// Ops of the fixed trace prefix the traced run replays: whole rounds of
/// each workload's generator, so every tenant does the same share.
uint64_t TracedOps(const std::string& workload) {
  // An epoch is 20 ops per tenant, plus 6 for a tenant that also takes
  // the CLI path (all ordinary tenants, one dense tenant).
  if (workload == "serve-ordinary") return 2 * 5 * 26;  // 2 epochs
  if (workload == "serve-dense") return 2 * (26 + 2 * 20);
  if (workload == "tenant-churn") return 2 * 80;  // 2 cycles of 21 visits
  return 250;  // cli-oneshot: 1 round of 25 schema visits
}

double MeanSpanMs(const std::vector<Span>& spans, const char* name) {
  std::vector<double> ms;
  for (const Span& s : spans) {
    if (std::strcmp(s.name, name) == 0) {
      ms.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
    }
  }
  return Mean(ms);
}

double Ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

/// The shipped dense examples beyond the eager cap: the CLI default
/// (eager) is expected to stop at UNKNOWN; the daemon default (lazy) must
/// reproduce the known verdicts. Returns wrong verdicts.
uint64_t ProbeDenseExamples(const std::string& root, uint64_t* unknown) {
  struct Known {
    const char* file;
    const char* verdict;
  };
  uint64_t wrong = 0;
  for (const Known& known :
       {Known{"dense_blowup.car", "SAT"},
        Known{"dense_unsat.car", "UNSAT: E0 E1 E2 E3"}}) {
    std::ifstream file(std::filesystem::path(root) / "examples" / "schemas" /
                       known.file);
    std::ostringstream text;
    text << file.rdbuf();
    auto schema = car::ParseSchema(text.str());
    if (!schema.ok()) {
      ++wrong;
      continue;
    }
    car::ExecContext exec;
    car::ReasonerOptions cli;
    cli.exec = &exec;
    car::ReasonerOptions daemon;
    daemon.lazy_expansion = true;
    for (const car::ReasonerOptions& options : {cli, daemon}) {
      car::Reasoner reasoner(&schema.value(), options);
      auto report = reasoner.CheckSchema();
      const std::string verdict =
          report.ok() ? VerdictString(schema.value(), report.value()) : "";
      if (verdict == "UNKNOWN" && !options.lazy_expansion) {
        ++*unknown;
      } else if (verdict != known.verdict) {
        std::fprintf(stderr, "WRONG verdict on %s: '%s'\n", known.file,
                     verdict.c_str());
        ++wrong;
      }
    }
  }
  return wrong;
}

void WriteSpans(const std::string& path, const Replay& replay) {
  std::ofstream out(path);
  for (const auto* spans : {&replay.client_spans(), &replay.server_spans()}) {
    for (const Span& s : *spans) {
      out << "{\"name\": \"" << s.name << "\", \"id\": " << s.id
          << ", \"parent\": " << s.parent << ", \"request\": " << s.request
          << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
          << "}\n";
    }
  }
}

std::string RenderTable(const std::string& title,
                        const std::vector<CategoryProfile>& profiles) {
  std::string out = car::StrCat("per-layer self time, ", title, "\n");
  for (const CategoryProfile& p : profiles) {
    char line[160];
    std::snprintf(line, sizeof(line), "%-16s n=%-5zu mean %9.3f ms\n",
                  p.category.c_str(), p.requests, p.mean_latency_ms);
    out += line;
    for (const LayerShare& layer : p.layers) {
      std::snprintf(line, sizeof(line), "    %-24s %9.3f ms %6.1f%%\n",
                    layer.layer.c_str(), layer.mean_ms, 100.0 * layer.share);
      out += line;
    }
  }
  return out;
}

double ShareOf(const std::vector<CategoryProfile>& profiles,
               const std::string& category, const std::string& layer,
               bool mean_ms = false) {
  for (const CategoryProfile& p : profiles) {
    if (p.category != category) continue;
    for (const LayerShare& l : p.layers) {
      if (l.layer == layer) return mean_ms ? l.mean_ms : l.share;
    }
  }
  return 0.0;
}

int RunTraced(const Args& args) {
  auto made = MakeInputs(args.workload, args.seed, args.root);
  if (!made.ok()) {
    std::fprintf(stderr, "inputs: %s\n", made.status().ToString().c_str());
    return 2;
  }
  const Inputs inputs = std::move(made.value());
  const uint64_t ops = TracedOps(args.workload);
  const auto cap = std::chrono::seconds(args.seconds);

  // The same op prefix through the composed layers, with spans off and
  // on, kOverheadRounds times, alternating which side runs first; the
  // median ratio of their op times is the tracing overhead. The last pair
  // gives the answers that are checked, and the spans and counters (every
  // pass records the same counts).
  std::vector<double> ratios;
  std::unique_ptr<Replay> plain;
  std::unique_ptr<Replay> traced;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  for (int round = 0; round < kOverheadRounds; ++round) {
    double ms[2] = {0.0, 0.0};
    for (int side = 0; side < 2; ++side) {
      const bool with_spans = (side + round) % 2 == 1;
      ResetScratch(args.scratch);
      std::unique_ptr<Replay>& replay = with_spans ? traced : plain;
      replay = std::make_unique<Replay>(
          inputs, ConfigFor(args),
          with_spans ? ServeMode::kTraced : ServeMode::kComposed);
      replay->Run(Clock::time_point::max(), Clock::now() + cap, ops, true);
      replay->Finish();
      Samples scaled = replay->samples();
      ToReferenceHost(&scaled);
      ms[with_spans] = Sum(scaled.op_ms);
      attempted += replay->samples().attempted;
      failed += replay->samples().failed;
    }
    ratios.push_back(Ratio(ms[1], ms[0]));
  }
  const double overhead_pct = 100.0 * (Percentile(ratios, 50) - 1.0);

  auto probe = ProbeLayers(inputs);
  if (!probe.ok()) {
    std::fprintf(stderr, "layer probe: %s\n",
                 probe.status().ToString().c_str());
    return 2;
  }
  uint64_t dense_unknown = 0;
  uint64_t wrong = WrongAnswers(inputs, plain->observed()) +
                   WrongAnswers(inputs, traced->observed());
  wrong += ProbeDenseExamples(args.root, &dense_unknown);

  const Samples& s = traced->samples();

  // Request categories for the table. The warm head is every warm batch
  // at or below the warm p50 of this replay (what batch_warm_p50_ms
  // measures: the memo hits), the warm tail every one at or above its p95.
  std::map<std::string, std::vector<uint64_t>> categories;
  categories["open"] = s.open.ids;
  categories["batch_cold"] = s.cold.ids;
  categories["batch_warm"] = s.warm.ids;
  const double warm_p50 = Percentile(s.warm.ms, 50);
  const double warm_p95 = Percentile(s.warm.ms, 95);
  for (size_t i = 0; i < s.warm.ms.size(); ++i) {
    if (s.warm.ms[i] <= warm_p50) {
      categories["batch_warm_head"].push_back(s.warm.ids[i]);
    }
    if (s.warm.ms[i] >= warm_p95) {
      categories["batch_warm_tail"].push_back(s.warm.ids[i]);
    }
  }
  for (const Span& span : traced->client_spans()) {
    if (std::strcmp(span.name, "cli.check") == 0 ||
        std::strcmp(span.name, "cli.query") == 0) {
      categories[span.name].push_back(span.id);
    }
  }
  const std::vector<CategoryProfile> profiles = ProfileCategories(
      traced->client_spans(), traced->server_spans(), categories);

  std::error_code error;
  std::filesystem::create_directories(args.trace_dir, error);
  const std::string stem = car::StrCat(args.trace_dir, "/", args.workload,
                                       "-seed", args.seed);
  WriteSpans(stem + ".spans.jsonl", *traced);
  const std::string table = RenderTable(
      car::StrCat(args.workload, " seed ", args.seed, ", ", ops,
                  " ops, tracing overhead ", overhead_pct, "%"),
      profiles);
  std::ofstream(stem + ".layers.txt") << table;
  std::printf("%s", table.c_str());

  const ServeCounters& serve = traced->serve_counters();
  const car::IncrementalStats& st = serve.session;
  const CliCounters& cli = traced->cli_counters();
  const size_t requests = s.open.ids.size() + s.cold.ids.size() +
                          s.warm.ids.size();
  const double probes_lazy =
      static_cast<double>(st.probes) - static_cast<double>(st.cluster_local);
  Report r;
  r.Add("serve.codec_us",
        1000.0 * ShareOf(profiles, "batch_warm_head", "serve.codec", true),
        "us");
  r.Add("serve.frame_bytes",
        Ratio(static_cast<double>(traced->frame_bytes()),
              static_cast<double>(requests)),
        "bytes");
  r.Add("serve.unattributed_ms",
        ShareOf(profiles, "batch_warm_head", "unattributed", true), "ms");
  r.Add("serve.session_cache.open_ms",
        MeanSpanMs(traced->server_spans(), "serve.session_cache.open"), "ms");
  r.Add("serve.session_cache.hit_rate",
        Ratio(static_cast<double>(serve.cache.warm_opens),
              static_cast<double>(serve.cache.opens)),
        "ratio");
  r.Add("serve.session_cache.evictions",
        static_cast<double>(serve.cache.evictions), "count");
  r.Add("serve.session_cache.resident_mb",
        static_cast<double>(serve.peak_resident_bytes) / (1 << 20), "MB");
  r.Add("persist.spills", static_cast<double>(serve.cache.spills), "count");
  r.Add("persist.spill_ineligible",
        static_cast<double>(serve.cache.spill_ineligible), "count");
  r.Add("persist.restores", static_cast<double>(serve.cache.restores),
        "count");
  r.Add("persist.restore_failures",
        static_cast<double>(serve.cache.restore_failures), "count");
  r.Add("persist.snapshot_bytes", probe->snapshot_bytes, "bytes");
  r.Add("persist.encode_ms", probe->encode_ms, "ms");
  r.Add("persist.decode_ms", probe->decode_ms, "ms");
  r.Add("persist.restore_ms", probe->restore_ms, "ms");
  r.Add("frontend.parse_ms", probe->parse_ms, "ms");
  r.Add("reasoner.query_parse_us",
        1000.0 * MeanSpanMs(traced->server_spans(), "reasoner.query_parse"),
        "us");
  r.Add("reasoner.batch_ms",
        MeanSpanMs(traced->server_spans(), "reasoner.batch"), "ms");
  r.Add("reasoner.batch_cold_ms",
        ShareOf(profiles, "batch_cold", "reasoner.batch", true), "ms");
  r.Add("reasoner.batch_warm_tail_ms",
        ShareOf(profiles, "batch_warm_tail", "reasoner.batch", true), "ms");
  r.Add("reasoner.probes", static_cast<double>(st.probes), "count");
  r.Add("reasoner.memo_hit_ratio",
        Ratio(static_cast<double>(st.memo_hits),
              static_cast<double>(st.memo_hits + st.memo_misses)),
        "ratio");
  r.Add("reasoner.closure_hits", static_cast<double>(st.closure_hits),
        "count");
  r.Add("reasoner.cluster_local", static_cast<double>(st.cluster_local),
        "count");
  r.Add("reasoner.lazy_conclusive_ratio",
        Ratio(static_cast<double>(st.lazy_hits), probes_lazy), "ratio");
  r.Add("reasoner.lazy_rounds",
        static_cast<double>(st.lazy_refinement_rounds), "count");
  r.Add("reasoner.lazy_materialized",
        static_cast<double>(st.lazy_compounds_materialized), "count");
  r.Add("reasoner.spurious_witnesses",
        static_cast<double>(st.spurious_witnesses), "count");
  r.Add("reasoner.blocking_constraints",
        static_cast<double>(st.lazy_blocking_constraints), "count");
  r.Add("reasoner.certificate_closures",
        static_cast<double>(st.lazy_certificate_closures), "count");
  r.Add("reasoner.base_builds", static_cast<double>(st.base_builds), "count");
  r.Add("reasoner.base_restores", static_cast<double>(st.base_restores),
        "count");
  r.Add("reasoner.delta_fallbacks", static_cast<double>(st.fallbacks),
        "count");
  r.Add("reasoner.check_ms",
        MeanSpanMs(traced->client_spans(), "reasoner.check"), "ms");
  r.Add("cli.batch_ms", MeanSpanMs(traced->client_spans(), "cli.batch"), "ms");
  r.Add("cli.base_builds", static_cast<double>(cli.session.base_builds),
        "count");
  r.Add("cli.delta_fallbacks", static_cast<double>(cli.session.fallbacks),
        "count");
  r.Add("cli.dense_unknown", static_cast<double>(dense_unknown), "count");
  r.Add("analysis.analyze_ms", probe->analyze_ms, "ms");
  r.Add("expansion.preamble_ms", probe->preamble_ms, "ms");
  r.Add("expansion.build_ms", probe->expansion_ms, "ms");
  r.Add("expansion.compounds", probe->compounds, "count");
  r.Add("solver.psi_build_ms", probe->psi_build_ms, "ms");
  r.Add("solver.solve_ms", probe->solve_ms, "ms");
  r.Add("solver.base_solve_ms", probe->base_solve_ms, "ms");
  const car::ProgressSnapshot& sp = serve.progress;
  const car::ProgressSnapshot& cp = cli.progress;
  r.Add("math.pivots",
        static_cast<double>(sp.pivots_executed + cp.pivots_executed),
        "count");
  r.Add("math.lp_solves", static_cast<double>(sp.lp_solves + cp.lp_solves),
        "count");
  r.Add("math.warm_starts",
        static_cast<double>(sp.warm_starts + cp.warm_starts), "count");
  r.Add("math.scalar_promotions",
        static_cast<double>(sp.scalar_promotions + cp.scalar_promotions),
        "count");
  r.Add("math.peak_fill", std::max(serve.peak_fill, cli.peak_fill), "ratio");
  for (const char* category : {"batch_cold", "batch_warm_tail"}) {
    for (const char* layer :
         {"serve.codec", "serve.session_cache", "reasoner.query_parse",
          "reasoner.batch", "serve.write", "unattributed"}) {
      r.Add(car::StrCat("share.", category, ".", layer),
            ShareOf(profiles, category, layer), "ratio");
    }
  }
  r.Add("trace.overhead_pct", overhead_pct, "%");
  r.Print();
  std::filesystem::remove_all(args.scratch);
  std::printf("%s\n", r.Render(wrong == 0, attempted, failed).c_str());
  return 0;
}

}  // namespace

/// Pins the process to the last CPU it may use, before the daemon thread
/// exists, so the client and the daemon share one CPU. In a closed loop
/// only one of them runs at a time; on separate CPUs every request pays
/// two cross-CPU wake-ups, which on a virtual machine cost more than an
/// open request and vary with the host's load. One CPU measures the
/// program instead of the scheduler.
void PinToOneCpu() {
  cpu_set_t& allowed = g_allowed_cpus;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  int last = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) last = cpu;
  }
  if (last < 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(last, &one);
  (void)sched_setaffinity(0, sizeof(one), &one);
}

}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::PinToOneCpu();
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 [--root DIR] [--scratch DIR] "
                 "[--trace-dir DIR]\n");
    return 2;
  }
  return args.trace ? perfbench::RunTraced(args)
                    : perfbench::RunUntraced(args);
}
