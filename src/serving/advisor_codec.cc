#include "serving/advisor_codec.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/enum_names.h"

namespace cloudview {

// Wire names of the enums only the codec names.
template <>
struct EnumNames<Scenario> {
  static constexpr EnumName<Scenario> kTable[] = {
      {"mv1", Scenario::kMV1BudgetLimit},
      {"mv2", Scenario::kMV2TimeLimit},
      {"mv3", Scenario::kMV3Tradeoff}};
};

template <>
struct EnumNames<ReselectPolicy::Kind> {
  static constexpr EnumName<ReselectPolicy::Kind> kTable[] = {
      {"static", ReselectPolicy::Kind::kStatic},
      {"every-k", ReselectPolicy::Kind::kEveryK},
      {"on-drift", ReselectPolicy::Kind::kOnDrift}};
};

namespace {

// --- Field tables --------------------------------------------------------
// Each request struct is described once, by Schema<S>::kFields: one Field
// per wire key, bound to the member it reads and writes and, for an
// integer, the range the wire accepts. ReadObject (with its unknown-field
// message) and WriteObject walk the same list, in list order. A range
// that core/ enforces is not repeated here (README, "Request ranges").
//
// Error messages grow inside out: a reader returns the text after the
// path (" must be ...", or ".key ..." from a nested object) and each
// enclosing object prepends its own key.

/// Closed range an integer wire value must lie in.
struct Range {
  int64_t lo = std::numeric_limits<int64_t>::min();
  int64_t hi = std::numeric_limits<int64_t>::max();
};

template <typename S>
struct Field {
  std::string_view key;
  Status (*read)(const JsonValue& json, const Range& range, S* out);
  JsonValue (*write)(const S& in);
  Range range;
  /// When set and true for `in`, WriteObject leaves the key out.
  bool (*omit)(const S& in);
};

template <typename S>
struct Schema;

template <typename S>
concept HasSchema = requires { Schema<S>::kFields; };

template <typename S>
Status ReadObject(const JsonValue& json, S* out);
template <typename S>
JsonValue WriteObject(const S& in);

// --- Typed values ----------------------------------------------------------

Status ReadValue(const JsonValue& json, const Range&, std::string* out) {
  if (!json.is_string()) return Status::InvalidArgument(" must be a string");
  *out = json.string_value();
  return Status::OK();
}

Status ReadValue(const JsonValue& json, const Range&, bool* out) {
  if (!json.is_bool()) {
    return Status::InvalidArgument(" must be true or false");
  }
  *out = json.bool_value();
  return Status::OK();
}

Status ReadValue(const JsonValue& json, const Range&, double* out) {
  if (!json.is_number()) return Status::InvalidArgument(" must be a number");
  *out = json.AsDouble();
  return Status::OK();
}

// Integer members travel as the int64 their key's unit suffix names
// (advisor_codec.h). Unsigned members also refuse negatives, and a
// CuboidId refuses any value it would narrow onto another cuboid.
int64_t ToWire(int64_t v) { return v; }
int64_t ToWire(uint64_t v) { return static_cast<int64_t>(v); }
int64_t ToWire(CuboidId v) { return v; }
int64_t ToWire(Money v) { return v.micros(); }
int64_t ToWire(Duration v) { return v.millis(); }
int64_t ToWire(DataSize v) { return v.bytes(); }
int64_t ToWire(Months v) { return v.milli(); }
void FromWire(int64_t w, int64_t* out) { *out = w; }
void FromWire(int64_t w, uint64_t* out) { *out = static_cast<uint64_t>(w); }
void FromWire(int64_t w, CuboidId* out) { *out = static_cast<CuboidId>(w); }
void FromWire(int64_t w, Money* out) { *out = Money::FromMicros(w); }
void FromWire(int64_t w, Duration* out) { *out = Duration::FromMillis(w); }
void FromWire(int64_t w, DataSize* out) { *out = DataSize::FromBytes(w); }
void FromWire(int64_t w, Months* out) { *out = Months::FromMilli(w); }
Range TypeRange(const void*) { return {}; }
Range TypeRange(const uint64_t*) { return {.lo = 0}; }
Range TypeRange(const CuboidId*) {
  return {.lo = 0, .hi = std::numeric_limits<CuboidId>::max()};
}

template <typename T>
concept IntWired = requires(int64_t w, T* out) { FromWire(w, out); };

template <IntWired T>
Status ReadValue(const JsonValue& json, const Range& range, T* out) {
  if (!json.is_int()) return Status::InvalidArgument(" must be an integer");
  const Range type = TypeRange(out);
  const int64_t lo = std::max(range.lo, type.lo);
  const int64_t hi = std::min(range.hi, type.hi);
  const int64_t value = json.int_value();
  if (value < lo || value > hi) {
    return Status::InvalidArgument(
        " must be in [" + std::to_string(lo) + ", " + std::to_string(hi) +
        "], got " + std::to_string(value));
  }
  FromWire(value, out);
  return Status::OK();
}

template <typename E>
std::string NameList() {
  std::string names;
  for (const EnumName<E>& entry : EnumNames<E>::kTable) {
    if (!names.empty()) names += ", ";
    names += entry.name;
  }
  return names;
}

template <typename E>
  requires std::is_enum_v<E>
Status ReadValue(const JsonValue& json, const Range&, E* out) {
  if (!json.is_string()) {
    return Status::InvalidArgument(" must be one of " + NameList<E>());
  }
  for (const EnumName<E>& entry : EnumNames<E>::kTable) {
    if (json.string_value() == entry.name) {
      *out = entry.value;
      return Status::OK();
    }
  }
  return Status::InvalidArgument(" \"" + json.string_value() +
                                 "\" is not one of " + NameList<E>());
}

template <HasSchema S>
Status ReadValue(const JsonValue& json, const Range&, S* out) {
  S value;
  CV_RETURN_IF_ERROR(ReadObject(json, &value));
  // An architecture that fails its structural check is refused here, by
  // path: the arch-sweep solver would skip it without a word.
  if constexpr (requires { value.Validate(); }) {
    Status valid = value.Validate();
    if (!valid.ok()) return Status::InvalidArgument(": " + valid.message());
  }
  *out = std::move(value);
  return Status::OK();
}

template <typename S>
Status ReadValue(const JsonValue& json, const Range& range,
                 std::vector<S>* out) {
  if (!json.is_array()) return Status::InvalidArgument(" must be an array");
  std::vector<S> items(json.items().size());
  for (size_t i = 0; i < items.size(); ++i) {
    Status status = ReadValue(json.items()[i], range, &items[i]);
    if (!status.ok()) return Status::InvalidArgument("[i]" + status.message());
  }
  *out = std::move(items);
  return Status::OK();
}

JsonValue WriteValue(const std::string& v) { return JsonValue::Str(v); }
JsonValue WriteValue(bool v) { return JsonValue::Bool(v); }
JsonValue WriteValue(double v) { return JsonValue::Double(v); }

template <IntWired T>
JsonValue WriteValue(const T& v) {
  return JsonValue::Int(ToWire(v));
}

template <typename E>
  requires std::is_enum_v<E>
JsonValue WriteValue(E v) {
  return JsonValue::Str(NameOf(v));
}

template <HasSchema S>
JsonValue WriteValue(const S& v) {
  return WriteObject(v);
}

template <typename S>
JsonValue WriteValue(const std::vector<S>& items) {
  JsonValue json = JsonValue::Array();
  for (const S& item : items) json.Push(WriteValue(item));
  return json;
}

// --- Fields and the generic object codec -----------------------------------

template <typename M>
struct MemberOf;
template <typename S, typename T>
struct MemberOf<T S::*> {
  using Struct = S;
};

/// The field `key` bound to the member `kMember`.
template <auto kMember,
          typename S = typename MemberOf<decltype(kMember)>::Struct>
constexpr Field<S> Member(
    std::string_view key, Range range = {},
    std::type_identity_t<bool (*)(const S&)> omit = nullptr) {
  return {key,
          [](const JsonValue& json, const Range& r, S* out) {
            return ReadValue(json, r, &(out->*kMember));
          },
          [](const S& in) { return WriteValue(in.*kMember); }, range, omit};
}

/// A Member the writer leaves out while it holds nothing: an empty
/// string or list, or an integer that is not positive.
template <auto kMember,
          typename S = typename MemberOf<decltype(kMember)>::Struct>
constexpr Field<S> OmitEmpty(std::string_view key, Range range = {}) {
  return Member<kMember>(key, range, [](const S& in) {
    const auto& value = in.*kMember;
    if constexpr (std::is_integral_v<std::decay_t<decltype(value)>>) {
      return value <= 0;
    } else {
      return value.empty();
    }
  });
}

template <typename S>
Status ReadObject(const JsonValue& json, S* out) {
  if (!json.is_object()) {
    return Status::InvalidArgument(" must be a JSON object");
  }
  const auto& fields = Schema<S>::kFields;
  for (const auto& [key, value] : json.members()) {
    if (std::none_of(std::begin(fields), std::end(fields),
                     [&](const Field<S>& f) { return f.key == key; })) {
      std::string accepted;
      for (const Field<S>& field : fields) {
        if (!accepted.empty()) accepted += ", ";
        accepted += field.key;
      }
      return Status::InvalidArgument("." + key +
                                     ": unknown field; accepted fields: " +
                                     accepted);
    }
  }
  for (const Field<S>& field : fields) {
    const JsonValue* value = json.Find(field.key);
    if (value == nullptr) continue;
    Status status = field.read(*value, field.range, out);
    if (!status.ok()) {
      return Status::InvalidArgument("." + std::string(field.key) +
                                     status.message());
    }
  }
  return Status::OK();
}

template <typename S>
JsonValue WriteObject(const S& in) {
  JsonValue json = JsonValue::Object();
  for (const Field<S>& field : Schema<S>::kFields) {
    if (field.omit == nullptr || !field.omit(in)) {
      json.Set(std::string(field.key), field.write(in));
    }
  }
  return json;
}

// --- The request structs ---------------------------------------------------
// Children before parents: a parent's Member instantiates the child's
// reader, which needs the child's Schema.

template <>
struct Schema<NodeGroupSpec> {
  static constexpr Field<NodeGroupSpec> kFields[] = {
      Member<&NodeGroupSpec::name>("name"),
      Member<&NodeGroupSpec::replicas>("replicas"),
      Member<&NodeGroupSpec::zones>("zones"),
      Member<&NodeGroupSpec::plan>("plan"),
  };
};

template <>
struct Schema<ArchitectureSpec> {
  static constexpr Field<ArchitectureSpec> kFields[] = {
      Member<&ArchitectureSpec::name>("name"),
      Member<&ArchitectureSpec::durability>("durability"),
      OmitEmpty<&ArchitectureSpec::groups>("groups"),
  };
};

template <>
struct Schema<ObjectiveSpec> {
  static constexpr Field<ObjectiveSpec> kFields[] = {
      Member<&ObjectiveSpec::scenario>("scenario"),
      Member<&ObjectiveSpec::budget_limit>("budget_limit_micros"),
      Member<&ObjectiveSpec::time_limit>("time_limit_ms"),
      Member<&ObjectiveSpec::alpha>("alpha"),
      Member<&ObjectiveSpec::time_includes_materialization>(
          "time_includes_materialization"),
      Member<&ObjectiveSpec::mv3_reference_time>("mv3_reference_time_ms"),
      Member<&ObjectiveSpec::mv3_reference_cost>(
          "mv3_reference_cost_micros"),
      Member<&ObjectiveSpec::max_monthly_cost>("max_monthly_cost_micros"),
      Member<&ObjectiveSpec::max_storage>("max_storage_bytes"),
      Member<&ObjectiveSpec::max_makespan>("max_makespan_ms"),
      Member<&ObjectiveSpec::frontier_epsilon>("frontier_epsilon"),
      OmitEmpty<&ObjectiveSpec::architectures>("architectures"),
      OmitEmpty<&ObjectiveSpec::architecture_inner_solver>(
          "architecture_inner_solver"),
  };
};

template <>
struct Schema<QuerySpec> {
  static constexpr Field<QuerySpec> kFields[] = {
      Member<&QuerySpec::name>("name"),
      Member<&QuerySpec::target>("target"),
      Member<&QuerySpec::frequency>("frequency"),
  };
};

template <>
struct Schema<WorkloadSpec> {
  static constexpr Field<WorkloadSpec> kFields[] = {
      Member<&WorkloadSpec::kind>("kind"),
      OmitEmpty<&WorkloadSpec::queries>("queries"),
  };
};

template <>
struct Schema<DriftSpec> {
  static constexpr Field<DriftSpec> kFields[] = {
      Member<&DriftSpec::kind>("kind"),
      Member<&DriftSpec::factor>("factor"),
      Member<&DriftSpec::floor>("floor"),
      Member<&DriftSpec::season_length>("season_length"),
      Member<&DriftSpec::phase>("phase"),
      Member<&DriftSpec::amplitude>("amplitude"),
      Member<&DriftSpec::rate>("rate"),
      Member<&DriftSpec::cuboid_skew>("cuboid_skew"),
      Member<&DriftSpec::growth_per_period>("growth_per_period"),
  };
};

template <>
struct Schema<TimelineSpec> {
  static constexpr Field<TimelineSpec> kFields[] = {
      Member<&TimelineSpec::num_periods>("num_periods"),
      Member<&TimelineSpec::period_length>("period_length_milli_months"),
      Member<&TimelineSpec::seed>("seed"),
      OmitEmpty<&TimelineSpec::drifts>("drifts"),
  };
};

// `k` and `threshold` belong to one kind each; the writer emits only the
// current kind's.
template <>
struct Schema<ReselectPolicy> {
  using Kind = ReselectPolicy::Kind;
  static constexpr Field<ReselectPolicy> kFields[] = {
      Member<&ReselectPolicy::kind>("kind"),
      Member<&ReselectPolicy::every_k>(
          "k", {},
          [](const ReselectPolicy& p) { return p.kind != Kind::kEveryK; }),
      Member<&ReselectPolicy::drift_threshold>(
          "threshold", {},
          [](const ReselectPolicy& p) { return p.kind != Kind::kOnDrift; }),
  };
};

// The writer emits the timeline and policy members only for the kinds
// that read them.
template <>
struct Schema<AdvisorRequest> {
  using Kind = AdvisorRequestKind;
  static constexpr Field<AdvisorRequest> kFields[] = {
      Member<&AdvisorRequest::kind>("kind"),
      OmitEmpty<&AdvisorRequest::session>("session"),
      OmitEmpty<&AdvisorRequest::solver>("solver"),
      Member<&AdvisorRequest::objective>("objective"),
      Member<&AdvisorRequest::workload>("workload"),
      Member<&AdvisorRequest::timeline>(
          "timeline", {},
          [](const AdvisorRequest& r) {
            return r.kind != Kind::kTimeline &&
                   r.kind != Kind::kComparePolicies;
          }),
      Member<&AdvisorRequest::policy>(
          "policy", {},
          [](const AdvisorRequest& r) { return r.kind != Kind::kTimeline; }),
      Member<&AdvisorRequest::policies>(
          "policies", {},
          [](const AdvisorRequest& r) {
            return r.kind != Kind::kComparePolicies;
          }),
      OmitEmpty<&AdvisorRequest::deadline_ms>("deadline_ms", {.lo = 0}),
  };
};

template <>
struct Schema<CandidateGenOptions> {
  static constexpr Field<CandidateGenOptions> kFields[] = {
      Member<&CandidateGenOptions::max_candidates>("max_candidates"),
      Member<&CandidateGenOptions::max_size_fraction>("max_size_fraction"),
      Member<&CandidateGenOptions::max_rows_fraction>("max_rows_fraction"),
      Member<&CandidateGenOptions::maintenance_delta>(
          "maintenance_delta_bytes"),
      Member<&CandidateGenOptions::queries_only>("queries_only"),
  };
};

template <>
struct Schema<ScenarioConfig> {
  static constexpr Field<ScenarioConfig> kFields[] = {
      Member<&ScenarioConfig::schema>("schema"),
      Member<&ScenarioConfig::provider>("provider"),
      Member<&ScenarioConfig::instance_name>("instance_name"),
      Member<&ScenarioConfig::nb_instances>("nb_instances"),
      Member<&ScenarioConfig::maintenance_cycles>("maintenance_cycles"),
      Member<&ScenarioConfig::prorate_storage>("prorate_storage"),
      Member<&ScenarioConfig::storage_period>("storage_period_milli_months"),
      Member<&ScenarioConfig::single_compute_session>(
          "single_compute_session"),
      Member<&ScenarioConfig::frontier_solver>("frontier_solver"),
      Member<&ScenarioConfig::candidates>("candidates"),
  };
};

// --- Response payloads -------------------------------------------------

JsonValue CostToJson(const CostBreakdown& cost) {
  JsonValue json = JsonValue::Object();
  json.Set("processing_micros", JsonValue::Int(cost.processing.micros()));
  json.Set("materialization_micros",
           JsonValue::Int(cost.materialization.micros()));
  json.Set("maintenance_micros",
           JsonValue::Int(cost.maintenance.micros()));
  json.Set("storage_micros", JsonValue::Int(cost.storage.micros()));
  json.Set("transfer_micros", JsonValue::Int(cost.transfer.micros()));
  json.Set("requests_micros", JsonValue::Int(cost.requests.micros()));
  json.Set("session_rounding_micros",
           JsonValue::Int(cost.session_rounding.micros()));
  json.Set("interruption_micros",
           JsonValue::Int(cost.interruption.micros()));
  json.Set("inter_az_micros", JsonValue::Int(cost.inter_az.micros()));
  json.Set("total_micros", JsonValue::Int(cost.total().micros()));
  return json;
}

JsonValue SelectedToJson(const std::vector<size_t>& selected) {
  JsonValue json = JsonValue::Array();
  for (size_t c : selected) {
    json.Push(JsonValue::Int(static_cast<int64_t>(c)));
  }
  return json;
}

JsonValue EvaluationToJson(const SubsetEvaluation& evaluation) {
  JsonValue json = JsonValue::Object();
  json.Set("selected", SelectedToJson(evaluation.selected));
  json.Set("cost", CostToJson(evaluation.cost));
  json.Set("processing_time_ms",
           JsonValue::Int(evaluation.processing_time.millis()));
  json.Set("makespan_ms", JsonValue::Int(evaluation.makespan.millis()));
  return json;
}

JsonValue MultiToJson(const MultiScore& multi) {
  JsonValue json = JsonValue::Object();
  json.Set("monthly_cost_micros",
           JsonValue::Int(multi.monthly_cost.micros()));
  json.Set("time_ms", JsonValue::Int(multi.time.millis()));
  json.Set("storage_bytes", JsonValue::Int(multi.storage.bytes()));
  json.Set("unavailability_ppm", JsonValue::Int(multi.unavailability_ppm));
  return json;
}

JsonValue ParetoPointToJson(const ParetoPoint& point) {
  JsonValue json = JsonValue::Object();
  json.Set("score", MultiToJson(point.score));
  json.Set("selected", SelectedToJson(point.selected));
  json.Set("origin", JsonValue::Str(point.origin));
  if (!point.architecture.empty()) {
    json.Set("architecture", JsonValue::Str(point.architecture));
  }
  return json;
}

JsonValue SelectionToJson(const SelectionResult& selection) {
  JsonValue json = JsonValue::Object();
  json.Set("evaluation", EvaluationToJson(selection.evaluation));
  json.Set("feasible", JsonValue::Bool(selection.feasible));
  json.Set("objective_value", JsonValue::Double(selection.objective_value));
  json.Set("solver", JsonValue::Str(selection.solver));
  json.Set("time_ms", JsonValue::Int(selection.time.millis()));
  json.Set("multi", MultiToJson(selection.multi));
  if (!selection.architecture.empty()) {
    json.Set("architecture", JsonValue::Str(selection.architecture));
  }
  if (!selection.frontier.empty()) {
    JsonValue frontier = JsonValue::Array();
    for (const ParetoPoint& p : selection.frontier) {
      frontier.Push(ParetoPointToJson(p));
    }
    json.Set("frontier", std::move(frontier));
  }
  json.Set("cancelled", JsonValue::Bool(selection.cancelled));
  json.Set("gap_fraction", JsonValue::Double(selection.gap_fraction));
  return json;
}

JsonValue SolveRunToJson(const SolveRun& run) {
  JsonValue json = JsonValue::Object();
  json.Set("selection", SelectionToJson(run.selection));
  json.Set("baseline", EvaluationToJson(run.baseline));
  return json;
}

JsonValue FrontierRunToJson(const FrontierRun& run) {
  JsonValue json = JsonValue::Object();
  JsonValue frontier = JsonValue::Array();
  for (const ParetoPoint& p : run.frontier) {
    frontier.Push(ParetoPointToJson(p));
  }
  json.Set("frontier", std::move(frontier));
  json.Set("best", SelectionToJson(run.best));
  json.Set("baseline", EvaluationToJson(run.baseline));
  return json;
}

JsonValue JointRunToJson(const JointRun& run) {
  JsonValue json = JsonValue::Object();
  JsonValue frontier = JsonValue::Array();
  for (const ParetoPoint& p : run.frontier) {
    frontier.Push(ParetoPointToJson(p));
  }
  json.Set("frontier", std::move(frontier));
  json.Set("best", SelectionToJson(run.best));
  json.Set("best_architecture", JsonValue::Str(run.best_architecture));
  json.Set("baseline", EvaluationToJson(run.baseline));
  return json;
}

JsonValue TimelineRunToJson(const TimelineRun& run) {
  JsonValue json = JsonValue::Object();
  json.Set("policy", WriteObject(run.policy));
  json.Set("policy_name", JsonValue::Str(run.policy.Name()));
  json.Set("solver", JsonValue::Str(run.solver));
  JsonValue ledger = JsonValue::Array();
  for (const TemporalPeriodRow& row : run.ledger) {
    JsonValue r = JsonValue::Object();
    r.Set("period", JsonValue::Int(static_cast<int64_t>(row.period)));
    r.Set("selected", SelectedToJson(row.selected));
    r.Set("reselected", JsonValue::Bool(row.reselected));
    r.Set("drift", JsonValue::Double(row.drift));
    r.Set("views_added",
          JsonValue::Int(static_cast<int64_t>(row.views_added)));
    r.Set("views_dropped",
          JsonValue::Int(static_cast<int64_t>(row.views_dropped)));
    r.Set("cost", CostToJson(row.cost));
    r.Set("processing_time_ms",
          JsonValue::Int(row.processing_time.millis()));
    ledger.Push(std::move(r));
  }
  json.Set("ledger", std::move(ledger));
  json.Set("total", CostToJson(run.total));
  json.Set("solver_runs",
           JsonValue::Int(static_cast<int64_t>(run.solver_runs)));
  json.Set("warm_periods",
           JsonValue::Int(static_cast<int64_t>(run.warm_periods)));
  return json;
}

JsonValue ProviderRowToJson(const ProviderComparisonRow& row) {
  JsonValue json = JsonValue::Object();
  json.Set("provider", JsonValue::Str(row.provider));
  json.Set("instance", JsonValue::Str(row.instance));
  json.Set("granularity", JsonValue::Str(NameOf(row.granularity)));
  json.Set("run", SolveRunToJson(row.run));
  return json;
}

JsonValue MetaToJson(const ResponseMeta& meta) {
  JsonValue json = JsonValue::Object();
  json.Set("solver", JsonValue::Str(meta.solver));
  json.Set("wall_ms", JsonValue::Int(meta.wall_ms));
  json.Set("cache_lookups",
           JsonValue::Int(static_cast<int64_t>(meta.cache_lookups)));
  json.Set("cache_hits",
           JsonValue::Int(static_cast<int64_t>(meta.cache_hits)));
  json.Set("cache_evictions",
           JsonValue::Int(static_cast<int64_t>(meta.cache_evictions)));
  json.Set("gap_fraction", JsonValue::Double(meta.gap_fraction));
  json.Set("cancelled", JsonValue::Bool(meta.cancelled));
  json.Set("warm", JsonValue::Bool(meta.warm));
  return json;
}

}  // namespace

Result<ScenarioConfig> ParseScenarioConfig(const JsonValue& json) {
  ScenarioConfig config;
  Status status = ReadObject(json, &config);
  if (!status.ok()) {
    return Status::InvalidArgument("config" + status.message());
  }
  return config;
}

Result<AdvisorRequest> ParseAdvisorRequest(const JsonValue& json) {
  AdvisorRequest request;
  Status status = ReadObject(json, &request);
  if (!status.ok()) {
    return Status::InvalidArgument("request" + status.message());
  }
  if (json.Find("kind") == nullptr) {
    return Status::InvalidArgument("request.kind is required; accepted: " +
                                   NameList<AdvisorRequestKind>());
  }
  return request;
}

Result<AdvisorRequest> ParseAdvisorRequestText(std::string_view text) {
  CV_ASSIGN_OR_RETURN(JsonValue json, ParseJson(text));
  return ParseAdvisorRequest(json);
}

JsonValue AdvisorRequestToJson(const AdvisorRequest& request) {
  return WriteObject(request);
}

JsonValue AdvisorResponseToJson(const AdvisorResponse& response) {
  JsonValue json = JsonValue::Object();
  json.Set("kind", JsonValue::Str(AdvisorRequestKindName(response.kind)));
  json.Set("meta", MetaToJson(response.meta));
  switch (response.kind) {
    case AdvisorRequestKind::kSolve:
      json.Set("solve", SolveRunToJson(response.solve));
      break;
    case AdvisorRequestKind::kFrontier:
      json.Set("frontier", FrontierRunToJson(response.frontier));
      break;
    case AdvisorRequestKind::kTimeline:
      json.Set("timeline", TimelineRunToJson(response.timeline));
      break;
    case AdvisorRequestKind::kCompareProviders: {
      JsonValue providers = JsonValue::Array();
      for (const ProviderComparisonRow& row : response.providers) {
        providers.Push(ProviderRowToJson(row));
      }
      json.Set("providers", std::move(providers));
      break;
    }
    case AdvisorRequestKind::kComparePolicies: {
      JsonValue policies = JsonValue::Array();
      for (const TimelineRun& run : response.policies) {
        policies.Push(TimelineRunToJson(run));
      }
      json.Set("policies", std::move(policies));
      break;
    }
    case AdvisorRequestKind::kSolveJoint:
      json.Set("joint", JointRunToJson(response.joint));
      break;
  }
  return json;
}

}  // namespace cloudview
