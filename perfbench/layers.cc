// Layer probes (the phases an IncrementalSession hides) and the per-layer
// self-time attribution of traced requests.
#include <algorithm>
#include <unordered_map>

#include "analysis/analyzer.h"
#include "bench.h"
#include "expansion/expansion.h"
#include "expansion/lazy_enum.h"
#include "frontend/parser.h"
#include "persist/snapshot_format.h"
#include "reasoner/query_text.h"
#include "solver/incremental_psi.h"
#include "solver/psi.h"
#include "solver/solve.h"

namespace perfbench {

namespace {

/// Each phase runs this many times per schema; the median is kept.
constexpr int kProbeRepeats = 3;

template <typename F>
double TimeMs(F&& f) {
  const Clock::time_point start = Clock::now();
  f();
  return MillisSince(start);
}

double Median(std::vector<double> values) { return Percentile(values, 50); }

struct PhaseTimes {
  std::vector<double> parse, analyze, preamble, expansion, psi_build, solve,
      base_solve, encode, decode, restore;
};

car::Status ProbeOnce(const Variant& variant, PhaseTimes* t,
                      LayerProbe* sizes) {
  car::Result<car::Schema> parsed = car::InvalidArgument("unset");
  t->parse.push_back(TimeMs([&] { parsed = car::ParseSchema(variant.text); }));
  CAR_RETURN_IF_ERROR(parsed.status());
  const car::Schema& schema = parsed.value();
  t->analyze.push_back(TimeMs([&] { (void)car::AnalyzeSchema(schema); }));
  const car::ExpansionOptions options;
  t->preamble.push_back(
      TimeMs([&] { (void)car::BuildExpansionPreamble(schema, options); }));
  car::Result<car::Expansion> expansion = car::InvalidArgument("unset");
  t->expansion.push_back(
      TimeMs([&] { expansion = car::BuildExpansion(schema, options); }));
  CAR_RETURN_IF_ERROR(expansion.status());
  t->psi_build.push_back(
      TimeMs([&] { (void)car::BuildFullPsiSystem(expansion.value()); }));
  car::Status status = car::Status::Ok();
  t->solve.push_back(TimeMs(
      [&] { status = car::SolvePsi(expansion.value()).status(); }));
  CAR_RETURN_IF_ERROR(status);
  t->base_solve.push_back(TimeMs([&] {
    status = car::PrepareIncrementalPsi(expansion.value(), {}).status();
  }));
  CAR_RETURN_IF_ERROR(status);

  // Snapshot codec: an eager session (the only kind that can spill) with
  // a memo of the first pool queries.
  car::IncrementalSession session(&schema);
  std::vector<car::ImplicationQuery> queries;
  for (size_t i = 0; i < variant.pool.size() && i < 8; ++i) {
    CAR_ASSIGN_OR_RETURN(
        car::ImplicationQuery query,
        car::ParseQueryTokens(schema, car::TokenizeQueryLine(variant.pool[i])));
    queries.push_back(std::move(query));
  }
  CAR_RETURN_IF_ERROR(session.RunImplicationBatch(queries).status());
  CAR_ASSIGN_OR_RETURN(std::string bytes, session.Serialize());
  car::Result<car::persist::WarmSnapshot> decoded =
      car::InvalidArgument("unset");
  t->decode.push_back(
      TimeMs([&] { decoded = car::persist::DecodeSnapshot(bytes); }));
  CAR_RETURN_IF_ERROR(decoded.status());
  t->encode.push_back(
      TimeMs([&] { (void)car::persist::EncodeSnapshot(decoded.value()); }));
  car::IncrementalSession restored(&schema);
  t->restore.push_back(TimeMs([&] { status = restored.Deserialize(bytes); }));
  CAR_RETURN_IF_ERROR(status);
  sizes->compounds = static_cast<double>(
      expansion.value().compound_classes.size());
  sizes->snapshot_bytes = static_cast<double>(bytes.size());
  return car::Status::Ok();
}

}  // namespace

car::Result<LayerProbe> ProbeLayers(const Inputs& inputs) {
  LayerProbe total;
  for (const Variant& variant : inputs.variants) {
    PhaseTimes t;
    LayerProbe sizes;
    for (int r = 0; r < kProbeRepeats; ++r) {
      CAR_RETURN_IF_ERROR(ProbeOnce(variant, &t, &sizes));
    }
    total.parse_ms += Median(t.parse);
    total.analyze_ms += Median(t.analyze);
    total.preamble_ms += Median(t.preamble);
    total.expansion_ms += Median(t.expansion);
    total.psi_build_ms += Median(t.psi_build);
    total.solve_ms += Median(t.solve);
    total.base_solve_ms += Median(t.base_solve);
    total.encode_ms += Median(t.encode);
    total.decode_ms += Median(t.decode);
    total.restore_ms += Median(t.restore);
    total.compounds += sizes.compounds;
    total.snapshot_bytes += sizes.snapshot_bytes;
  }
  // Means per schema.
  const double n = static_cast<double>(inputs.variants.size());
  for (double* field :
       {&total.parse_ms, &total.analyze_ms, &total.preamble_ms,
        &total.expansion_ms, &total.psi_build_ms, &total.solve_ms,
        &total.base_solve_ms, &total.encode_ms, &total.decode_ms,
        &total.restore_ms, &total.compounds, &total.snapshot_bytes}) {
    *field /= n;
  }
  return total;
}

// --- Attribution ---------------------------------------------------------------

namespace {

/// The layer a span's self time is charged to. The request roots hold
/// what no layer span covers: transport, wake-ups and dispatch glue.
std::string LayerOf(const std::string& name) {
  if (name == "client.request" || name == "serve.request" ||
      name == "cli.check" || name == "cli.query") {
    return "unattributed";
  }
  if (name == "client.encode" || name == "client.decode" ||
      name == "serve.decode" || name == "serve.encode") {
    return "serve.codec";
  }
  if (name.rfind("serve.session_cache.", 0) == 0) return "serve.session_cache";
  return name;
}

/// Table order: serve layers in request order, then the CLI layers, then
/// the remainder.
int LayerRank(const std::string& layer) {
  static const char* const kOrder[] = {
      "serve.codec",  "serve.session_cache", "reasoner.query_parse",
      "reasoner.batch", "serve.write",       "frontend.parse",
      "reasoner.check", "cli.query_parse",   "cli.batch",
      "unattributed"};
  for (int i = 0; i < static_cast<int>(std::size(kOrder)); ++i) {
    if (layer == kOrder[i]) return i;
  }
  return static_cast<int>(std::size(kOrder));
}

}  // namespace

std::vector<CategoryProfile> ProfileCategories(
    const std::vector<Span>& client, const std::vector<Span>& server,
    const std::map<std::string, std::vector<uint64_t>>& categories) {
  std::unordered_map<uint64_t, const Span*> by_id;
  std::unordered_map<uint64_t, std::vector<const Span*>> children;
  for (const auto* spans : {&client, &server}) {
    for (const Span& span : *spans) {
      by_id[span.id] = &span;
      if (span.parent != 0) children[span.parent].push_back(&span);
    }
  }
  // A span counts only inside its parent's interval: the daemon thread
  // can still be finishing its write after the client has the response.
  struct Clipped {
    const Span* span;
    int64_t start_ns;
    int64_t end_ns;
  };
  auto clip = [](const Span& span, const Clipped& parent) {
    Clipped out{&span, std::max(span.start_ns, parent.start_ns),
                std::min(span.end_ns, parent.end_ns)};
    if (out.end_ns < out.start_ns) out.end_ns = out.start_ns;
    return out;
  };

  std::vector<CategoryProfile> out;
  for (const auto& [category, roots] : categories) {
    CategoryProfile profile;
    profile.category = category;
    std::map<std::string, double> self_ms;
    double latency_ms = 0.0;
    for (uint64_t root : roots) {
      auto it = by_id.find(root);
      if (it == by_id.end()) continue;
      ++profile.requests;
      const Span& span = *it->second;
      latency_ms += static_cast<double>(span.end_ns - span.start_ns) / 1e6;
      std::vector<Clipped> stack = {{&span, span.start_ns, span.end_ns}};
      while (!stack.empty()) {
        const Clipped node = stack.back();
        stack.pop_back();
        int64_t self_ns = node.end_ns - node.start_ns;
        for (const Span* child : children[node.span->id]) {
          const Clipped c = clip(*child, node);
          self_ns -= c.end_ns - c.start_ns;
          stack.push_back(c);
        }
        self_ms[LayerOf(node.span->name)] +=
            static_cast<double>(self_ns) / 1e6;
      }
    }
    if (profile.requests == 0) continue;
    const double n = static_cast<double>(profile.requests);
    profile.mean_latency_ms = latency_ms / n;
    for (const auto& [layer, ms] : self_ms) {
      LayerShare share;
      share.layer = layer;
      share.mean_ms = ms / n;
      share.share = latency_ms > 0 ? ms / latency_ms : 0.0;
      profile.layers.push_back(share);
    }
    std::stable_sort(profile.layers.begin(), profile.layers.end(),
                     [](const LayerShare& a, const LayerShare& b) {
                       return LayerRank(a.layer) < LayerRank(b.layer);
                     });
    out.push_back(std::move(profile));
  }
  return out;
}

}  // namespace perfbench
