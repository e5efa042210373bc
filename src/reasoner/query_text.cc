#include "reasoner/query_text.h"

#include <optional>
#include <sstream>
#include <utility>

#include "base/strings.h"
#include "model/cardinality.h"

namespace car {

std::vector<std::string> TokenizeQueryLine(const std::string& line) {
  std::istringstream stream(line);
  std::vector<std::string> tokens;
  std::string token;
  while (stream >> token) {
    if (token[0] == '#') break;
    tokens.push_back(std::move(token));
  }
  return tokens;
}

Result<ImplicationQuery> ParseQueryTokens(
    const Schema& schema, const std::vector<std::string>& tokens) {
  auto class_of = [&schema](const std::string& name) -> Result<ClassId> {
    ClassId id = schema.LookupClass(name);
    if (id == kInvalidId) {
      return NotFound(StrCat("unknown class '", Elide(name), "'"));
    }
    return id;
  };
  auto term_of = [&schema](
                     const std::string& text) -> Result<AttributeTerm> {
    bool inverse = text.rfind("inv:", 0) == 0;
    std::string name = inverse ? text.substr(4) : text;
    AttributeId id = schema.LookupAttribute(name);
    if (id == kInvalidId) {
      return NotFound(StrCat("unknown attribute '", Elide(name), "'"));
    }
    return inverse ? AttributeTerm::Inverse(id) : AttributeTerm::Direct(id);
  };
  auto bound_of = [](const std::string& text) -> Result<uint64_t> {
    if (text == "inf") return Cardinality::kInfinity;
    std::optional<uint64_t> value = ParseUint64(text);
    if (!value) return InvalidArgument(StrCat("bad bound '", Elide(text), "'"));
    return *value;
  };

  ImplicationQuery query;
  const std::string& op = tokens[0];
  if (op == "isa" && tokens.size() == 3) {
    query.kind = ImplicationQuery::Kind::kIsa;
    CAR_ASSIGN_OR_RETURN(query.class_id, class_of(tokens[1]));
    CAR_ASSIGN_OR_RETURN(ClassId super, class_of(tokens[2]));
    query.formula = ClassFormula::OfClass(super);
    return query;
  }
  if (op == "disjoint" && tokens.size() == 3) {
    query.kind = ImplicationQuery::Kind::kDisjoint;
    CAR_ASSIGN_OR_RETURN(query.class_id, class_of(tokens[1]));
    CAR_ASSIGN_OR_RETURN(query.other, class_of(tokens[2]));
    return query;
  }
  if ((op == "min-card" || op == "max-card") && tokens.size() == 4) {
    query.kind = op == "min-card" ? ImplicationQuery::Kind::kMinCardinality
                                  : ImplicationQuery::Kind::kMaxCardinality;
    CAR_ASSIGN_OR_RETURN(query.class_id, class_of(tokens[1]));
    CAR_ASSIGN_OR_RETURN(query.term, term_of(tokens[2]));
    CAR_ASSIGN_OR_RETURN(query.bound, bound_of(tokens[3]));
    return query;
  }
  if ((op == "min-part" || op == "max-part") && tokens.size() == 5) {
    query.kind = op == "min-part"
                     ? ImplicationQuery::Kind::kMinParticipation
                     : ImplicationQuery::Kind::kMaxParticipation;
    CAR_ASSIGN_OR_RETURN(query.class_id, class_of(tokens[1]));
    query.relation = schema.LookupRelation(tokens[2]);
    if (query.relation == kInvalidId) {
      return NotFound(StrCat("unknown relation '", Elide(tokens[2]), "'"));
    }
    query.role = schema.LookupRole(tokens[3]);
    if (query.role == kInvalidId) {
      return NotFound(StrCat("unknown role '", Elide(tokens[3]), "'"));
    }
    CAR_ASSIGN_OR_RETURN(query.bound, bound_of(tokens[4]));
    return query;
  }
  return InvalidArgument(
      StrCat("bad query '", Elide(op), "' (or wrong arity)"));
}

Result<std::vector<ImplicationQuery>> ParseQueryText(
    const Schema& schema, std::string_view text,
    std::vector<std::string>* normalized_lines) {
  std::vector<ImplicationQuery> queries;
  std::istringstream input{std::string(text)};
  std::string line;
  while (std::getline(input, line)) {
    std::vector<std::string> tokens = TokenizeQueryLine(line);
    if (tokens.empty()) continue;
    auto query = ParseQueryTokens(schema, tokens);
    if (!query.ok()) {
      return Status(
          query.status().code(),
          StrCat("query '", Elide(line), "': ", query.status().message()));
    }
    if (normalized_lines != nullptr) {
      std::string normalized;
      for (const std::string& token : tokens) {
        if (!normalized.empty()) normalized += " ";
        normalized += token;
      }
      normalized_lines->push_back(std::move(normalized));
    }
    queries.push_back(std::move(query.value()));
  }
  return queries;
}

}  // namespace car
