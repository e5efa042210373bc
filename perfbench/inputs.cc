// Workload inputs: schemas, query pools and the answer key.
#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>

#include "base/rng.h"
#include "base/strings.h"
#include "bench.h"
#include "frontend/parser.h"
#include "frontend/printer.h"
#include "reasoner/query_text.h"
#include "reasoner/reasoner.h"
#include "workloads/generators.h"

namespace perfbench {

using car::Rng;
using car::Schema;
using car::StrCat;

double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(p / 100.0 * values.size() + 0.999999);
  if (rank == 0) rank = 1;
  if (rank > values.size()) rank = values.size();
  return values[rank - 1];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

namespace {


std::string ClassName(const Schema& schema, Rng* rng) {
  return schema.ClassName(
      static_cast<car::ClassId>(rng->NextBelow(schema.num_classes())));
}

/// Any-kind queries over the whole schema, cycling through the kinds the
/// schema supports so every pool has the same kind mix.
std::string OrdinaryQuery(const Schema& schema, Rng* rng, int kind) {
  switch (kind) {
    case 0:
      return StrCat("isa ", ClassName(schema, rng), " ",
                    ClassName(schema, rng));
    case 1: {
      std::string a = ClassName(schema, rng);
      std::string b = ClassName(schema, rng);
      if (b < a) std::swap(a, b);
      return StrCat("disjoint ", a, " ", b);
    }
    case 2:
    case 3: {
      if (schema.num_attributes() == 0) return "";
      const std::string& attribute = schema.AttributeName(
          static_cast<car::AttributeId>(
              rng->NextBelow(schema.num_attributes())));
      std::string term =
          rng->NextBelow(4) == 0 ? StrCat("inv:", attribute) : attribute;
      if (kind == 2) {
        return StrCat("min-card ", ClassName(schema, rng), " ", term, " ",
                      1 + rng->NextBelow(3));
      }
      return StrCat("max-card ", ClassName(schema, rng), " ", term, " ",
                    rng->NextBelow(4) == 0
                        ? std::string("inf")
                        : std::to_string(1 + rng->NextBelow(3)));
    }
    default: {
      if (schema.num_relations() == 0) return "";
      auto relation = static_cast<car::RelationId>(
          rng->NextBelow(schema.num_relations()));
      const car::RelationDefinition* definition =
          schema.relation_definition(relation);
      const std::string& role = schema.RoleName(
          definition->roles[rng->NextBelow(definition->roles.size())]);
      return StrCat(kind == 4 ? "min-part " : "max-part ",
                    ClassName(schema, rng), " ",
                    schema.RelationName(relation), " ", role, " ",
                    1 + rng->NextBelow(2));
    }
  }
}

/// Dense schemas: every query stays inside one cluster (chaff D* or core
/// E*). A query that ties the clusters together makes the eager answer
/// key enumerate the product of both clusters, which is not what the
/// workload measures.
std::string DenseQuery(const Schema& schema, Rng* rng, int kind) {
  std::vector<std::string> chaff, core;
  for (int c = 0; c < schema.num_classes(); ++c) {
    const std::string& name = schema.ClassName(c);
    (name[0] == 'D' ? chaff : core).push_back(name);
  }
  const std::vector<std::string>& side =
      (kind % 2 == 0 && !chaff.empty()) ? chaff : core;
  auto pick = [&](const std::vector<std::string>& names) {
    return names[rng->NextBelow(names.size())];
  };
  switch (kind) {
    case 0:
    case 1:
      return StrCat("isa ", pick(side), " ", pick(side));
    case 2:
    case 3: {
      std::string a = pick(side);
      std::string b = pick(side);
      if (b < a) std::swap(a, b);
      return StrCat("disjoint ", a, " ", b);
    }
    default: {
      if (schema.num_attributes() == 0) return "";
      const std::string& attribute = schema.AttributeName(
          static_cast<car::AttributeId>(
              rng->NextBelow(schema.num_attributes())));
      return StrCat(kind == 4 ? "min-card " : "max-card ", pick(core), " ",
                    attribute, " ", 1 + rng->NextBelow(3));
    }
  }
}

/// Draws the pool from `draw`, then shuffles it with `order`.
std::vector<std::string> MakePool(const Schema& schema, Rng* draw,
                                  Rng* order, bool dense) {
  const int size = kPoolWindow * kPoolWindows;
  const int kinds = dense ? 6 : (schema.num_relations() > 0 ? 6 : 4);
  std::vector<std::string> pool;
  std::set<std::string> seen;
  for (int attempt = 0;
       static_cast<int>(pool.size()) < size && attempt < size * 50;
       ++attempt) {
    const int kind = attempt % kinds;
    std::string line = dense ? DenseQuery(schema, draw, kind)
                             : OrdinaryQuery(schema, draw, kind);
    if (line.empty() || !seen.insert(line).second) continue;
    pool.push_back(std::move(line));
  }
  // Small schemas run out of distinct queries of some kinds early, so the
  // pool's tail holds the other kinds. Shuffled, every window gets the
  // same mix.
  for (size_t i = pool.size(); i > 1; --i) {
    std::swap(pool[i - 1], pool[order->NextBelow(i)]);
  }
  return pool;
}

void AddVariant(Inputs* inputs, Tenant* tenant, const std::string& label,
                std::string text, Rng* rng, bool dense) {
  Variant variant;
  variant.id = static_cast<int>(inputs->variants.size());
  variant.label = label;
  variant.text = std::move(text);
  auto schema = car::ParseSchema(variant.text);
  CAR_CHECK(schema.ok());
  // The queries come from a fixed generator seed per variant, as the
  // schema shapes do; `rng` (the workload seed) orders them, which decides
  // which queries share a batch and which ones arrive cold.
  Rng draw(1000 + static_cast<uint64_t>(variant.id));
  variant.pool = MakePool(schema.value(), &draw, rng, dense);
  if (tenant != nullptr) tenant->variants.push_back(variant.id);
  inputs->variants.push_back(std::move(variant));
}

void AddTenant(Inputs* inputs, const std::string& name,
               std::vector<Schema> schemas, Rng* rng, bool dense) {
  Tenant tenant;
  tenant.name = name;
  for (size_t i = 0; i < schemas.size(); ++i) {
    AddVariant(inputs, &tenant, StrCat(name, "/", static_cast<char>('a' + i)),
               car::PrintSchema(schemas[i]), rng, dense);
  }
  inputs->tenants.push_back(std::move(tenant));
}

std::vector<Schema> Chains(std::initializer_list<car::ChainParams> params) {
  std::vector<Schema> out;
  for (const car::ChainParams& p : params) {
    out.push_back(car::GenerateChainSchema(p));
  }
  return out;
}

/// The ordinary families of the serving replay: the EXP-R tenants plus a
/// short chain, three mutation variants each. Every variant is served and
/// checked equally often, so an odd variant count puts each percentile
/// inside one variant's samples instead of on the edge between two, where
/// it would jump between their costs from run to run.
void AddOrdinaryTenants(Inputs* inputs, Rng* shapes, Rng* rng) {
  AddTenant(inputs, "chain", Chains({{12, 2}, {14, 3}, {13, 2}}), rng, false);
  AddTenant(inputs, "chain-short", Chains({{6, 2}, {7, 3}, {6, 4}}), rng,
            false);
  std::vector<Schema> clustered;
  for (car::ClusteredParams p : {car::ClusteredParams{2, 3, 2, false},
                                 car::ClusteredParams{3, 3, 2, false},
                                 car::ClusteredParams{2, 4, 2, false}}) {
    clustered.push_back(car::GenerateClusteredSchema(shapes, p));
  }
  AddTenant(inputs, "clustered", std::move(clustered), rng, false);
  std::vector<Schema> hierarchy;
  for (car::HierarchyParams p :
       {car::HierarchyParams{15, 1, 3}, car::HierarchyParams{18, 2, 3},
        car::HierarchyParams{12, 1, 3}}) {
    hierarchy.push_back(car::GenerateHierarchy(shapes, p));
  }
  AddTenant(inputs, "hierarchy", std::move(hierarchy), rng, false);
  AddTenant(inputs, "chain-wide", Chains({{10, 4}, {11, 4}, {9, 4}}), rng,
            false);
}

car::Result<std::string> ReadFile(const std::filesystem::path& path) {
  std::ifstream file(path);
  if (!file) return car::NotFound(StrCat("cannot read ", path.string()));
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

/// The shipped example corpus, minus the two dense examples: under the
/// CLI defaults they stop at the compound cap (UNKNOWN), so they are
/// probed once in the traced run instead of failing timed operations.
car::Result<std::vector<std::filesystem::path>> CorpusFiles(
    const std::string& root) {
  std::vector<std::filesystem::path> files;
  const std::filesystem::path dir =
      std::filesystem::path(root) / "examples" / "schemas";
  std::error_code error;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, error);
       !error && it != std::filesystem::recursive_directory_iterator();
       it.increment(error)) {
    const std::filesystem::path& path = it->path();
    if (path.extension() != ".car") continue;
    if (path.filename().string().rfind("dense_", 0) == 0) continue;
    files.push_back(path);
  }
  if (error || files.empty()) {
    return car::NotFound(StrCat("no example schemas under ", dir.string()));
  }
  std::sort(files.begin(), files.end());
  return files;
}

}  // namespace

car::Result<Inputs> MakeInputs(const std::string& workload, uint64_t seed,
                               const std::string& root) {
  Inputs inputs;
  // The seed orders the query pools. Schema shapes and the queries of
  // each pool come from fixed generator seeds: a workload is a fixed set
  // of tenants with a fixed set of questions, and a new seed changes which
  // questions arrive together and in which order. A run asks nearly every
  // pool entry, so its percentiles do not hang on which queries one seed
  // drew from a schema's query space.
  Rng shapes(17);
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 17);
  if (workload == "serve-ordinary") {
    AddOrdinaryTenants(&inputs, &shapes, &rng);
  } else if (workload == "serve-dense") {
    // Chaff sizes where the eager path still finishes, so the answer key
    // comes from the eager reasoner. Three tenants of three variants, for
    // the same odd-count reason as the ordinary tenants.
    std::vector<Schema> sat, unsat, deep;
    for (int chaff : {10, 11, 9}) {
      sat.push_back(car::GenerateDenseBlowupSchema({chaff, 4, 2}));
      unsat.push_back(car::GenerateDenseUnsatSchema({chaff, 4, 2}));
      deep.push_back(car::GenerateDenseUnsatSchema({chaff, 6, 3}));
    }
    AddTenant(&inputs, "dense-sat", std::move(sat), &rng, true);
    AddTenant(&inputs, "dense-unsat", std::move(unsat), &rng, true);
    AddTenant(&inputs, "dense-unsat-deep", std::move(deep), &rng, true);
    // On the UNSAT tenants the eager CLI path takes 30-400 ms a batch, 80 %
    // of the window, where the daemon answers in a few ms; EXP-U already
    // compares the two there. Only the SAT tenant also takes the CLI path.
    inputs.tenants[1].cli = false;
    inputs.tenants[2].cli = false;
  } else if (workload == "tenant-churn") {
    // Two hot tenants, then seven cold ones (see RefillChurn). The cold
    // tenants span the ordinary families and sizes, so their cold-batch
    // costs overlap into one spread instead of separate modes.
    AddTenant(&inputs, "hot-clustered",
              {car::GenerateClusteredSchema(&shapes, {2, 3, 2, false}),
               car::GenerateClusteredSchema(&shapes, {3, 3, 2, false})},
              &rng, false);
    AddTenant(&inputs, "hot-hierarchy",
              {car::GenerateHierarchy(&shapes, {15, 1, 3}),
               car::GenerateHierarchy(&shapes, {18, 2, 3})},
              &rng, false);
    AddTenant(&inputs, "chain", Chains({{10, 2}, {11, 3}}), &rng, false);
    AddTenant(&inputs, "chain-short", Chains({{6, 2}, {7, 3}}), &rng, false);
    AddTenant(&inputs, "chain-wide", Chains({{9, 4}, {10, 4}}), &rng, false);
    AddTenant(&inputs, "hierarchy",
              {car::GenerateHierarchy(&shapes, {12, 1, 3}),
               car::GenerateHierarchy(&shapes, {14, 2, 3})},
              &rng, false);
    AddTenant(&inputs, "clustered",
              {car::GenerateClusteredSchema(&shapes, {2, 4, 2, false}),
               car::GenerateClusteredSchema(&shapes, {3, 4, 2, false})},
              &rng, false);
    AddTenant(&inputs, "chain-mid", Chains({{8, 2}, {9, 3}}), &rng, false);
    AddTenant(&inputs, "chain-long", Chains({{12, 2}, {13, 3}}), &rng, false);
  } else if (workload == "cli-oneshot") {
    // Every generated variant and every shipped schema is one
    // single-variant tenant, so the daemon can mirror each CLI invocation.
    AddOrdinaryTenants(&inputs, &shapes, &rng);
    inputs.tenants.clear();
    for (const Variant& variant : inputs.variants) {
      inputs.tenants.push_back({variant.label, {variant.id}});
      inputs.cli_round.push_back(static_cast<int>(inputs.tenants.size()) - 1);
    }
    CAR_ASSIGN_OR_RETURN(auto files, CorpusFiles(root));
    for (const auto& path : files) {
      CAR_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
      if (!car::ParseSchema(text).ok()) {
        return car::InvalidArgument(StrCat("unparsable ", path.string()));
      }
      Tenant tenant;
      tenant.name = "corpus/" + path.filename().string();
      AddVariant(&inputs, &tenant, tenant.name, std::move(text), &rng, false);
      inputs.tenants.push_back(std::move(tenant));
      // Twice per round: 15 generated plus 2 x 5 shipped schemas keeps the
      // round's weight odd (see AddOrdinaryTenants).
      inputs.cli_round.push_back(static_cast<int>(inputs.tenants.size()) - 1);
      inputs.cli_round.push_back(static_cast<int>(inputs.tenants.size()) - 1);
    }
  } else {
    return car::InvalidArgument(StrCat("unknown workload '", workload, "'"));
  }
  return inputs;
}

// --- Answer key ------------------------------------------------------------

std::string VerdictString(const Schema& schema, const car::SatReport& report) {
  if (report.verdict == car::Verdict::kUnknown) return "UNKNOWN";
  if (report.verdict == car::Verdict::kSat) return "SAT";
  std::string out = "UNSAT:";
  for (car::ClassId c : report.unsatisfiable_classes) {
    out += " " + schema.ClassName(c);
  }
  return out;
}

namespace {

/// Checks one variant's observed answers and verdict; returns the number
/// of wrong ones.
car::Result<uint64_t> CheckVariant(const Variant& variant,
                                   const std::vector<int8_t>& answers,
                                   const std::string& verdict) {
  const bool asked = std::any_of(answers.begin(), answers.end(),
                                 [](int8_t a) { return a >= 0; });
  if (!asked && verdict.empty()) return uint64_t{0};
  CAR_ASSIGN_OR_RETURN(Schema schema, car::ParseSchema(variant.text));
  // The key is the eager from-scratch reasoner: no incremental session,
  // no prefilter, no lazy expansion, no governor.
  car::Reasoner reasoner(&schema);
  uint64_t wrong = 0;
  if (!verdict.empty() && verdict != "UNKNOWN") {
    CAR_ASSIGN_OR_RETURN(car::SatReport report, reasoner.CheckSchema());
    if (VerdictString(schema, report) != verdict) {
      std::fprintf(stderr, "WRONG verdict on %s: %s\n",
                   variant.label.c_str(), verdict.c_str());
      ++wrong;
    }
  }
  for (size_t i = 0; i < answers.size(); ++i) {
    if (answers[i] < 0) continue;
    CAR_ASSIGN_OR_RETURN(
        car::ImplicationQuery query,
        car::ParseQueryTokens(schema,
                              car::TokenizeQueryLine(variant.pool[i])));
    CAR_ASSIGN_OR_RETURN(bool expected, reasoner.RunImplicationQuery(query));
    if (expected != (answers[i] == 1)) {
      std::fprintf(stderr, "WRONG answer on %s: %s\n",
                   variant.label.c_str(), variant.pool[i].c_str());
      ++wrong;
    }
  }
  return wrong;
}

}  // namespace

car::Result<uint64_t> CheckAgainstKey(const Inputs& inputs,
                                      const Observed& observed,
                                      int threads) {
  // Variants are independent, so they are checked on `threads` threads,
  // each taking the next unchecked variant.
  const size_t n = inputs.variants.size();
  std::vector<car::Result<uint64_t>> wrong(n, uint64_t{0});
  std::atomic<size_t> next{0};
  auto work = [&] {
    for (size_t v = next++; v < n; v = next++) {
      wrong[v] = CheckVariant(inputs.variants[v], observed.answers[v],
                              observed.verdicts[v]);
    }
  };
  std::vector<std::thread> workers;
  for (int i = 1; i < threads; ++i) workers.emplace_back(work);
  work();
  for (std::thread& worker : workers) worker.join();
  uint64_t total = observed.inconsistent;
  for (const car::Result<uint64_t>& w : wrong) {
    CAR_RETURN_IF_ERROR(w.status());
    total += w.value();
  }
  return total;
}

}  // namespace perfbench
