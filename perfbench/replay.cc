// perfbench_replay: serves one perfbench request plan in process.
//
//   perfbench_replay --plan PLAN --replies OUT [--trace SPANS]
//
// PLAN is what perfbench/workloads.py writes: a header line
// {"setup":S,"loop":L}, then S set-up lines (create_session, then one
// priming request per session) and L loop lines, byte for byte what the
// TCP client sends.
//
// Reference replay (always): the plan is served the way advisor_server
// serves a line (ParseJson, ParseAdvisorRequest, AdvisorService::Serve,
// which runs CloudScenario::Dispatch, then AdvisorResponseToJson and
// WriteJson), and one reply line per loop line goes to OUT. The client
// checks every reply it got over TCP against these.
//
// Traced replay (--trace): each loop line is served twice more, next to
// its reference serving, each time on a service of its own:
//   - traced: each layer's public functions called in Dispatch's order,
//     each under a span;
//   - staged: the real serving path split at the session, with
//     SessionManager::Find and AdvisorSession::Serve (the session lock,
//     the session's warm slot and CloudScenario::Dispatch) timed.
// Both results must equal the reference one. The reference replay times
// AdvisorService::Serve, so the service's and Dispatch's own time come
// from the real path, minus the traced leaf spans. Then the pool classes
// are timed at concurrency 1 and 2, and the spans are written to SPANS
// as Chrome trace-event JSON (loadable in Perfetto).
//
// The last stdout line is a JSON summary for perfbench/run.py.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "core/optimizer/candidate_generation.h"
#include "core/optimizer/evaluator.h"
#include "core/optimizer/memo_search.h"
#include "core/optimizer/selector.h"
#include "core/optimizer/solver.h"
#include "core/optimizer/temporal_planner.h"
#include "core/scenario.h"
#include "serving/advisor_codec.h"
#include "serving/advisor_service.h"
#include "serving/json.h"
#include "workload/timeline.h"

namespace cloudview {
namespace {

// Requests of each pool class timed at concurrency 1 and 2.
constexpr size_t kPoolSample = 12;
const char* const kPoolClasses[] = {"branch-and-bound", "solve-joint",
                                    "compare-providers", "compare-policies"};

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// In-memory spans. A null Tracer* turns every Scope into a no-op, which
// is how set-up lines run on the traced service.
class Tracer {
 public:
  struct Span {
    const char* name;
    uint32_t request;
    int32_t parent;
    int64_t start_ns;
    int64_t end_ns;
  };

  class Scope {
   public:
    Scope(Tracer* tracer, const char* name)
        : tracer_(tracer), index_(tracer ? tracer->Begin(name) : -1) {}
    ~Scope() {
      if (tracer_ != nullptr) tracer_->End(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int32_t index_;
  };

  void set_request(uint32_t request) { request_ = request; }
  const std::vector<Span>& spans() const { return spans_; }

  // Span names must outlive the tracer; solver names are interned here.
  const char* Intern(std::string name) {
    return names_.insert(std::move(name)).first->c_str();
  }

 private:
  int32_t Begin(const char* name) {
    spans_.push_back(Span{name, request_, open_.empty() ? -1 : open_.back(),
                          NowNs(), 0});
    open_.push_back(static_cast<int32_t>(spans_.size() - 1));
    return open_.back();
  }
  void End(int32_t index) {
    spans_[static_cast<size_t>(index)].end_ns = NowNs();
    open_.pop_back();
  }

  std::vector<Span> spans_;
  std::vector<int32_t> open_;
  std::set<std::string> names_;
  uint32_t request_ = 0;
};

// Work counts of one traced request, written as args of its root span.
// The slot outcome and the candidate generation count are read off the
// reference reply's meta.warm, so they are what the program's own
// AdvisorWarmSlot did; the traced replay must agree (meta.warm is part
// of the compared payload).
struct Counters {
  std::string request_class;
  bool slot_lookup = false;
  bool warm_hit = false;
  uint64_t candgen_calls = 0;
  uint64_t candidates = 0;
  uint64_t cache_lookups = 0;
  uint64_t cache_hits = 0;
  SearchStats bnb;
  uint64_t solver_runs = 0;
  uint64_t provider_rows = 0;
  uint64_t request_bytes = 0;
  uint64_t reply_bytes = 0;
  // Real-path times, in ns: AdvisorService::Serve in the reference
  // replay; SessionManager::Find and AdvisorSession::Serve in the staged
  // one.
  int64_t serve_ns = 0;
  int64_t find_ns = 0;
  int64_t session_serve_ns = 0;
};

// The traced replay's own warm slot. Within one session the cluster
// and candidate options are fixed, so Dispatch's fingerprint reduces to
// the query list.
struct TracedSlot {
  std::vector<QuerySpec> queries;
  std::shared_ptr<const SelectionEvaluator> evaluator;
  std::shared_ptr<EvaluationCache> cache;
};

bool SameQueries(const std::vector<QuerySpec>& a,
                 const std::vector<QuerySpec>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const QuerySpec& x, const QuerySpec& y) {
                      return x.name == y.name && x.target == y.target &&
                             x.frequency == y.frequency;
                    });
}

JsonValue Envelope(const Status& status) {
  JsonValue out = JsonValue::Object();
  out.Set("ok", JsonValue::Bool(status.ok()));
  out.Set("code", JsonValue::Str(Status::CodeToString(status.code())));
  if (!status.message().empty()) {
    out.Set("message", JsonValue::Str(status.message()));
  }
  return out;
}

// The payload with the fields that vary from run to run (wall time and
// cumulative cache telemetry) zeroed, for comparing two replays.
std::string Canonical(AdvisorResponse response) {
  response.meta.wall_ms = 0;
  response.meta.cache_lookups = 0;
  response.meta.cache_hits = 0;
  response.meta.cache_evictions = 0;
  return WriteJson(AdvisorResponseToJson(response));
}

std::string RequestClass(const AdvisorRequest& request) {
  if (request.solver == "branch-and-bound") return request.solver;
  return AdvisorRequestKindName(request.kind);
}

// Mirrors the drift construction Dispatch does for a TimelineSpec; the
// reference replay has already validated the specs.
std::unique_ptr<DriftModel> MakeDrift(const DriftSpec& spec) {
  if (spec.kind == "frequency-decay") {
    return std::make_unique<FrequencyDecayDrift>(
        spec.factor, static_cast<uint64_t>(std::max<int64_t>(spec.floor, 0)));
  }
  if (spec.kind == "seasonal-spike") {
    return std::make_unique<SeasonalSpikeDrift>(
        static_cast<size_t>(spec.season_length),
        static_cast<size_t>(spec.phase), spec.amplitude);
  }
  if (spec.kind == "query-churn") {
    return std::make_unique<QueryChurnDrift>(spec.rate, spec.cuboid_skew);
  }
  return std::make_unique<DatasetGrowthDrift>(spec.growth_per_period);
}

// SolveImpl's steps: candidate generation and evaluator build on a slot
// miss, then the search on the slot's evaluator and cache.
Result<SolveRun> TracedSolve(const CloudScenario& scenario,
                             const Workload& workload,
                             const ObjectiveSpec& spec,
                             std::string_view solver, TracedSlot& slot,
                             Tracer* tracer, Counters& counters,
                             ResponseMeta& meta) {
  const bool hit = slot.evaluator != nullptr &&
                   SameQueries(slot.queries, workload.queries());
  if (!hit) {
    CV_ASSIGN_OR_RETURN(
        DeploymentSpec deployment,
        scenario.MakeDeployment(workload, scenario.cluster()));
    Result<std::vector<ViewCandidate>> candidates = [&] {
      Tracer::Scope span(tracer, "candgen");
      return GenerateCandidates(scenario.lattice(), workload,
                                scenario.simulator(), scenario.cluster(),
                                scenario.config().candidates);
    }();
    if (!candidates.ok()) return candidates.status();
    counters.candidates += candidates.value().size();
    Result<SelectionEvaluator> built = [&] {
      Tracer::Scope span(tracer, "evaluator.build");
      return SelectionEvaluator::Create(
          scenario.lattice(), workload, scenario.simulator(),
          scenario.cluster(), scenario.cost_model(), deployment,
          candidates.MoveValue());
    }();
    if (!built.ok()) return built.status();
    slot.queries = workload.queries();
    slot.evaluator =
        std::make_shared<const SelectionEvaluator>(built.MoveValue());
    slot.cache = std::make_shared<EvaluationCache>();
  }

  const EvaluationCache::AggregateCounts before = slot.cache->aggregate();
  Result<SelectionResult> selection = [&]() -> Result<SelectionResult> {
    Tracer::Scope span(
        tracer, tracer ? tracer->Intern("search." + std::string(solver))
                       : "");
    if (solver != "branch-and-bound") {
      return ViewSelector(*slot.evaluator, slot.cache.get())
          .Solve(spec, solver);
    }
    // What ViewSelector::Solve does for this solver, with SearchStats
    // attached (the registered strategy runs default options).
    SolverContext context(*slot.evaluator, spec, slot.cache.get());
    BranchAndBoundOptions options;
    options.stats = &counters.bnb;
    CV_ASSIGN_OR_RETURN(SelectionResult result,
                        SolveBranchAndBound(context, options));
    result.solver = std::string(solver);
    return result;
  }();
  if (!selection.ok()) return selection.status();
  const EvaluationCache::AggregateCounts after = slot.cache->aggregate();
  counters.cache_lookups += after.lookups - before.lookups;
  counters.cache_hits += after.hits - before.hits;

  meta.warm = hit;
  meta.cache_lookups = after.lookups;
  meta.cache_hits = after.hits;
  meta.cache_evictions = after.evictions;
  SolveRun run;
  run.selection = selection.MoveValue();
  run.baseline = slot.evaluator->baseline();
  return run;
}

// Dispatch's body, one public call per layer.
Result<AdvisorResponse> TracedDispatch(const CloudScenario& scenario,
                                       const AdvisorRequest& request,
                                       TracedSlot& slot, Tracer* tracer,
                                       Counters& counters) {
  Tracer::Scope dispatch_span(tracer, "dispatch");
  if (request.kind == AdvisorRequestKind::kCompareProviders) {
    // The sweep rebuilds a deployment per price sheet inside the
    // library; pricing is timed as one span around it.
    Result<AdvisorResponse> response = [&] {
      Tracer::Scope span(tracer, "providers");
      return scenario.Dispatch(request);
    }();
    if (response.ok()) {
      counters.provider_rows += response.value().providers.size();
    }
    return response;
  }

  AdvisorResponse response;
  response.kind = request.kind;
  std::string_view solver = request.solver;
  if (solver.empty()) {
    solver = request.kind == AdvisorRequestKind::kFrontier
                 ? std::string_view(scenario.config().frontier_solver)
             : request.kind == AdvisorRequestKind::kSolveJoint
                 ? std::string_view("arch-sweep")
                 : kDefaultSolverName;
  }
  response.meta.solver = std::string(solver);
  Workload workload;
  if (request.workload.kind == "default") {
    CV_ASSIGN_OR_RETURN(workload, scenario.DefaultWorkload());
  } else {
    workload = Workload(request.workload.queries);
  }

  switch (request.kind) {
    case AdvisorRequestKind::kSolve:
    case AdvisorRequestKind::kFrontier:
    case AdvisorRequestKind::kSolveJoint: {
      CV_ASSIGN_OR_RETURN(SolveRun run,
                          TracedSolve(scenario, workload, request.objective,
                                      solver, slot, tracer, counters,
                                      response.meta));
      SelectionResult* best = &response.solve.selection;
      if (request.kind == AdvisorRequestKind::kSolve) {
        response.solve = std::move(run);
      } else if (request.kind == AdvisorRequestKind::kFrontier) {
        FrontierRun& out = response.frontier;
        out.baseline = std::move(run.baseline);
        out.best = std::move(run.selection);
        out.frontier = std::move(out.best.frontier);
        out.best.frontier.clear();
        if (out.frontier.empty() && out.best.feasible) {
          out.frontier.push_back(ParetoPoint{out.best.multi,
                                             out.best.evaluation.selected,
                                             out.best.solver});
        }
        best = &out.best;
      } else {
        JointRun& out = response.joint;
        out.baseline = std::move(run.baseline);
        out.best = std::move(run.selection);
        out.frontier = std::move(out.best.frontier);
        out.best.frontier.clear();
        out.best_architecture = out.best.architecture;
        best = &out.best;
      }
      response.meta.cancelled = best->cancelled;
      response.meta.gap_fraction = best->gap_fraction;
      return response;
    }
    case AdvisorRequestKind::kTimeline:
    case AdvisorRequestKind::kComparePolicies: {
      const TimelineSpec& spec = request.timeline;
      std::vector<std::unique_ptr<DriftModel>> drift;
      for (const DriftSpec& d : spec.drifts) drift.push_back(MakeDrift(d));
      TimelineOptions options;
      options.num_periods = static_cast<size_t>(spec.num_periods);
      options.period_length = spec.period_length;
      options.seed = spec.seed;
      Result<WorkloadTimeline> timeline = [&] {
        Tracer::Scope span(tracer, "timeline.generate");
        return WorkloadTimeline::Generate(scenario.lattice(), workload,
                                          std::move(drift), options);
      }();
      if (!timeline.ok()) return timeline.status();
      Result<TemporalPlanner> planner = [&] {
        Tracer::Scope span(tracer, "planner.create");
        return TemporalPlanner::Create(
            scenario.lattice(), scenario.simulator(), scenario.cluster(),
            scenario.cost_model(), timeline.MoveValue(),
            scenario.config().candidates,
            scenario.config().maintenance_cycles);
      }();
      if (!planner.ok()) return planner.status();
      Tracer::Scope span(tracer, "planner.run");
      if (request.kind == AdvisorRequestKind::kTimeline) {
        CV_ASSIGN_OR_RETURN(
            response.timeline,
            planner.value().Run(request.objective, request.policy, solver));
        counters.solver_runs += response.timeline.solver_runs;
      } else {
        CV_ASSIGN_OR_RETURN(
            response.policies,
            planner.value().ComparePolicies(request.objective,
                                            request.policies, solver));
        for (const TimelineRun& run : response.policies) {
          counters.solver_runs += run.solver_runs;
        }
      }
      return response;
    }
    case AdvisorRequestKind::kCompareProviders:
      break;
  }
  return Status::Internal("unhandled request kind");
}

struct Served {
  Status status = Status::OK();
  bool has_response = false;
  AdvisorResponse response;
  std::string reply;
};

Result<AdvisorRequest> ParseRequestLine(const std::string& line) {
  CV_ASSIGN_OR_RETURN(JsonValue envelope, ParseJson(line));
  const JsonValue* request_json = envelope.Find("request");
  if (request_json == nullptr) {
    return Status::InvalidArgument("op \"request\" needs a \"request\"");
  }
  return ParseAdvisorRequest(*request_json);
}

// advisor_server's HandleLine for op=request. When `serve_ns` is given,
// the AdvisorService::Serve call's time is added to it.
Served ServeLine(AdvisorService& service, const std::string& line,
                 int64_t* serve_ns = nullptr) {
  Served out;
  Result<AdvisorRequest> request = ParseRequestLine(line);
  if (!request.ok()) {
    out.status = request.status();
    out.reply = WriteJson(Envelope(out.status));
    return out;
  }
  const int64_t start = NowNs();
  ServeOutcome outcome = service.Serve(request.value());
  if (serve_ns != nullptr) *serve_ns += NowNs() - start;
  JsonValue reply = Envelope(outcome.status);
  if (outcome.has_response) {
    reply.Set("response", AdvisorResponseToJson(outcome.response));
  }
  out.status = outcome.status;
  out.has_response = outcome.has_response;
  out.response = std::move(outcome.response);
  out.reply = WriteJson(reply);
  return out;
}

// What AdvisorService::Serve does for a session request, split at the
// session: SessionManager::Find, then AdvisorSession::Serve, which locks
// the session and runs CloudScenario::Dispatch on its warm slot. Both
// calls are timed into `counters` when it is given. No reply line is
// written.
Served StagedServeLine(AdvisorService& service, const std::string& line,
                       Counters* counters) {
  Served out;
  Result<AdvisorRequest> request = ParseRequestLine(line);
  if (!request.ok()) {
    out.status = request.status();
    return out;
  }
  const int64_t start = NowNs();
  Result<std::shared_ptr<AdvisorSession>> session =
      service.sessions().Find(request.value().session);
  const int64_t found = NowNs();
  if (!session.ok()) {
    out.status = session.status();
    return out;
  }
  Result<AdvisorResponse> response = session.value()->Serve(request.value());
  if (counters != nullptr) {
    counters->find_ns = found - start;
    counters->session_serve_ns = NowNs() - found;
  }
  if (!response.ok()) {
    out.status = response.status();
    return out;
  }
  out.has_response = true;
  out.response = response.MoveValue();
  return out;
}

// The same line through the layers' public functions, each under a span.
Served TracedServeLine(AdvisorService& service,
                       std::map<std::string, TracedSlot>& slots,
                       const std::string& line, Tracer* tracer,
                       Counters& counters) {
  Served out;
  Tracer::Scope request_span(tracer, "request");
  Result<JsonValue> envelope = [&] {
    Tracer::Scope span(tracer, "json.parse");
    return ParseJson(line);
  }();
  const JsonValue* request_json =
      envelope.ok() ? envelope.value().Find("request") : nullptr;
  if (request_json == nullptr) {
    out.status = Status::InvalidArgument("unparseable plan line");
    return out;
  }
  Result<AdvisorRequest> request = [&] {
    Tracer::Scope span(tracer, "codec.decode");
    return ParseAdvisorRequest(*request_json);
  }();
  if (!request.ok()) {
    out.status = request.status();
    return out;
  }
  counters.request_class = RequestClass(request.value());
  Result<AdvisorResponse> response = [&]() -> Result<AdvisorResponse> {
    Tracer::Scope span(tracer, "service.serve");
    Result<std::shared_ptr<AdvisorSession>> session = [&] {
      Tracer::Scope find(tracer, "session.find");
      return service.sessions().Find(request.value().session);
    }();
    if (!session.ok()) return session.status();
    return TracedDispatch(session.value()->scenario(), request.value(),
                          slots[request.value().session], tracer, counters);
  }();
  if (!response.ok()) {
    out.status = response.status();
    return out;
  }
  out.has_response = true;
  out.response = response.MoveValue();
  JsonValue reply = Envelope(out.status);
  {
    Tracer::Scope span(tracer, "codec.encode");
    reply.Set("response", AdvisorResponseToJson(out.response));
  }
  Tracer::Scope span(tracer, "json.write");
  out.reply = WriteJson(reply);
  return out;
}

struct Plan {
  std::vector<std::string> setup;
  std::vector<std::string> loop;
};

Result<Plan> ReadPlan(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open plan " + path);
  std::string line;
  if (!std::getline(in, line)) return Status::InvalidArgument("empty plan");
  CV_ASSIGN_OR_RETURN(JsonValue header, ParseJson(line));
  const JsonValue* setup = header.Find("setup");
  const JsonValue* loop = header.Find("loop");
  if (setup == nullptr || loop == nullptr || !setup->is_int() ||
      !loop->is_int()) {
    return Status::InvalidArgument("plan header needs int setup and loop");
  }
  Plan plan;
  for (int64_t i = 0; i < setup->int_value() + loop->int_value(); ++i) {
    if (!std::getline(in, line)) {
      return Status::InvalidArgument("plan ends early");
    }
    (i < setup->int_value() ? plan.setup : plan.loop).push_back(line);
  }
  return plan;
}

// Set-up lines: sessions are created directly; priming requests go
// through `serve` so each replay builds its own warm slots.
template <typename ServeFn>
Status RunSetup(AdvisorService& service, const Plan& plan, ServeFn serve) {
  for (const std::string& line : plan.setup) {
    CV_ASSIGN_OR_RETURN(JsonValue envelope, ParseJson(line));
    const JsonValue* op = envelope.Find("op");
    if (op != nullptr && op->is_string() &&
        op->string_value() == "create_session") {
      const JsonValue* name = envelope.Find("name");
      const JsonValue* config = envelope.Find("config");
      if (name == nullptr || !name->is_string() || config == nullptr) {
        return Status::InvalidArgument("create_session needs name, config");
      }
      CV_ASSIGN_OR_RETURN(ScenarioConfig parsed, ParseScenarioConfig(*config));
      CV_RETURN_IF_ERROR(service.sessions()
                             .Create(name->string_value(), std::move(parsed))
                             .status());
    } else {
      CV_RETURN_IF_ERROR(serve(line));
    }
  }
  return Status::OK();
}

std::string JsonString(const std::string& s) {
  return WriteJson(JsonValue::Str(s));
}

Status WriteTrace(const std::string& path, const Tracer& tracer,
                  const std::vector<Counters>& counters) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return Status::NotFound("cannot write " + path);
  const std::vector<Tracer::Span>& spans = tracer.spans();
  const int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  std::fprintf(out, "{\"traceEvents\":[\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Tracer::Span& s = spans[i];
    std::fprintf(out,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%u,"
                 "\"span\":%zu,\"parent\":%d",
                 i == 0 ? "" : ",\n", s.name,
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.request,
                 i, s.parent);
    if (s.parent < 0 && s.request < counters.size()) {
      const Counters& c = counters[s.request];
      std::fprintf(
          out,
          ",\"class\":%s,\"slot_lookup\":%d,\"warm_hit\":%d,"
          "\"candgen_calls\":%llu,\"candidates\":%llu,"
          "\"cache_lookups\":%llu,\"cache_hits\":%llu,"
          "\"bnb_nodes_expanded\":%llu,\"bnb_pruned_by_bound\":%llu,"
          "\"bnb_bound_evaluations\":%llu,\"bnb_jobs\":%llu,"
          "\"solver_runs\":%llu,\"provider_rows\":%llu,"
          "\"request_bytes\":%llu,\"reply_bytes\":%llu,"
          "\"serve_ns\":%lld,\"find_ns\":%lld,\"session_serve_ns\":%lld",
          JsonString(c.request_class).c_str(), c.slot_lookup ? 1 : 0,
          c.warm_hit ? 1 : 0,
          static_cast<unsigned long long>(c.candgen_calls),
          static_cast<unsigned long long>(c.candidates),
          static_cast<unsigned long long>(c.cache_lookups),
          static_cast<unsigned long long>(c.cache_hits),
          static_cast<unsigned long long>(c.bnb.nodes_expanded),
          static_cast<unsigned long long>(c.bnb.pruned_by_bound),
          static_cast<unsigned long long>(c.bnb.bound_evaluations),
          static_cast<unsigned long long>(c.bnb.jobs),
          static_cast<unsigned long long>(c.solver_runs),
          static_cast<unsigned long long>(c.provider_rows),
          static_cast<unsigned long long>(c.request_bytes),
          static_cast<unsigned long long>(c.reply_bytes),
          static_cast<long long>(c.serve_ns),
          static_cast<long long>(c.find_ns),
          static_cast<long long>(c.session_serve_ns));
    }
    std::fprintf(out, "}}");
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0 ? Status::OK()
                               : Status::Internal("short write to " + path);
}

// Times up to kPoolSample requests of each pool class through the
// reference service at concurrency 1 and 2, in the order 1, 2, 2, 1 so
// drift over the measurement cancels. Returns the summary's "pool"
// member.
JsonValue TimePoolClasses(AdvisorService& service, const Plan& plan) {
  std::map<std::string, std::vector<AdvisorRequest>> samples;
  for (const std::string& line : plan.loop) {
    Result<JsonValue> envelope = ParseJson(line);
    if (!envelope.ok() || envelope.value().Find("request") == nullptr) {
      continue;
    }
    Result<AdvisorRequest> request =
        ParseAdvisorRequest(*envelope.value().Find("request"));
    if (!request.ok()) continue;
    std::vector<AdvisorRequest>& bucket =
        samples[RequestClass(request.value())];
    if (bucket.size() < kPoolSample) bucket.push_back(request.MoveValue());
  }
  std::map<std::string, int64_t> ns_at[3];
  for (size_t concurrency : {1, 2, 2, 1}) {
    ThreadPool::SetGlobalConcurrency(concurrency);
    for (const char* name : kPoolClasses) {
      for (const AdvisorRequest& request : samples[name]) {
        const int64_t start = NowNs();
        service.Serve(request);
        ns_at[concurrency][name] += NowNs() - start;
      }
    }
  }
  ThreadPool::SetGlobalConcurrency(DefaultConcurrency());
  JsonValue pool = JsonValue::Object();
  for (const char* name : kPoolClasses) {
    JsonValue row = JsonValue::Object();
    row.Set("requests",
            JsonValue::Int(static_cast<int64_t>(samples[name].size())));
    row.Set("ns_1", JsonValue::Int(ns_at[1][name]));
    row.Set("ns_2", JsonValue::Int(ns_at[2][name]));
    pool.Set(name, std::move(row));
  }
  return pool;
}

int Main(int argc, char** argv) {
  std::string plan_path, replies_path, trace_path;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag == "--plan") {
      plan_path = argv[i + 1];
    } else if (flag == "--replies") {
      replies_path = argv[i + 1];
    } else if (flag == "--trace") {
      trace_path = argv[i + 1];
    } else {
      break;
    }
  }
  if (plan_path.empty() || replies_path.empty() || argc % 2 == 0) {
    std::fprintf(stderr,
                 "usage: perfbench_replay --plan PLAN --replies OUT "
                 "[--trace SPANS]\n");
    return 2;
  }
  Result<Plan> plan = ReadPlan(plan_path);
  if (!plan.ok()) {
    std::fprintf(stderr, "perfbench_replay: %s\n",
                 plan.status().ToString().c_str());
    return 1;
  }
  const std::vector<std::string>& loop = plan.value().loop;

  Result<std::unique_ptr<AdvisorService>> reference =
      AdvisorService::Create(AdvisorService::Options());
  if (!reference.ok()) {
    std::fprintf(stderr, "perfbench_replay: %s\n",
                 reference.status().ToString().c_str());
    return 1;
  }
  AdvisorService& service = *reference.value();
  Status setup = RunSetup(service, plan.value(), [&](const std::string& l) {
    return ServeLine(service, l).status;
  });
  if (!setup.ok()) {
    std::fprintf(stderr, "perfbench_replay: set-up: %s\n",
                 setup.ToString().c_str());
    return 1;
  }
  // The traced and staged services are set up before the loop so that
  // each loop line goes through all three replays back to back: machine
  // noise then hits them alike, and the differences between their times
  // are the tracing overhead and the layers' own time rather than drift
  // between separate passes.
  const bool tracing = !trace_path.empty();
  std::unique_ptr<AdvisorService> traced;
  std::unique_ptr<AdvisorService> staged;
  std::map<std::string, TracedSlot> slots;
  if (tracing) {
    Result<std::unique_ptr<AdvisorService>> fresh =
        AdvisorService::Create(AdvisorService::Options());
    Result<std::unique_ptr<AdvisorService>> fresh_staged =
        AdvisorService::Create(AdvisorService::Options());
    if (!fresh.ok() || !fresh_staged.ok()) return 1;
    traced = fresh.MoveValue();
    staged = fresh_staged.MoveValue();
    Status traced_setup =
        RunSetup(*traced, plan.value(), [&](const std::string& l) {
          Counters ignored;
          return TracedServeLine(*traced, slots, l, nullptr, ignored).status;
        });
    Status staged_setup =
        RunSetup(*staged, plan.value(), [&](const std::string& l) {
          return StagedServeLine(*staged, l, nullptr).status;
        });
    if (!traced_setup.ok() || !staged_setup.ok()) {
      std::fprintf(stderr, "perfbench_replay: traced set-up: %s\n",
                   (traced_setup.ok() ? staged_setup : traced_setup)
                       .ToString()
                       .c_str());
      return 1;
    }
  }

  Tracer tracer;
  std::vector<Counters> counters(tracing ? loop.size() : 0);
  int64_t failed = 0;
  int64_t mismatches = 0;
  int64_t untraced_ns = 0;
  std::ofstream replies(replies_path, std::ios::binary);
  for (size_t i = 0; i < loop.size(); ++i) {
    Served served;
    int64_t serve_ns = 0;
    auto serve_reference = [&] {
      const int64_t start = NowNs();
      served = ServeLine(service, loop[i], &serve_ns);
      untraced_ns += NowNs() - start;
    };
    if (!tracing) {
      serve_reference();
    } else {
      Served traced_served;
      Served staged_served;
      const std::function<void()> replays[3] = {
          serve_reference,
          [&] {
            tracer.set_request(static_cast<uint32_t>(i));
            traced_served =
                TracedServeLine(*traced, slots, loop[i], &tracer, counters[i]);
          },
          [&] {
            staged_served = StagedServeLine(*staged, loop[i], &counters[i]);
          }};
      // Rotate which replay goes first, so that none always finds the
      // line's data warm in cache.
      for (size_t k = 0; k < 3; ++k) replays[(i + k) % 3]();
      if (!served.has_response || !traced_served.has_response ||
          !staged_served.has_response ||
          Canonical(traced_served.response) != Canonical(served.response) ||
          Canonical(staged_served.response) != Canonical(served.response)) {
        ++mismatches;
      }
      Counters& c = counters[i];
      c.serve_ns = serve_ns;
      const AdvisorRequestKind kind = served.response.kind;
      c.slot_lookup = served.has_response &&
                      (kind == AdvisorRequestKind::kSolve ||
                       kind == AdvisorRequestKind::kFrontier ||
                       kind == AdvisorRequestKind::kSolveJoint);
      c.warm_hit = c.slot_lookup && served.response.meta.warm;
      // A warm-slot miss runs GenerateCandidates once (CloudScenario's
      // SolveImpl); a hit runs it not at all.
      c.candgen_calls = c.slot_lookup && !c.warm_hit ? 1 : 0;
      c.request_bytes = loop[i].size() + 1;
      // Reply bytes with wall_ms written as 0, so the count repeats.
      traced_served.response.meta.wall_ms = 0;
      JsonValue reply = Envelope(traced_served.status);
      reply.Set("response", AdvisorResponseToJson(traced_served.response));
      c.reply_bytes = WriteJson(reply).size() + 1;
    }
    if (!served.status.ok()) ++failed;
    replies << served.reply << '\n';
  }
  replies.close();
  if (!replies) {
    std::fprintf(stderr, "perfbench_replay: cannot write %s\n",
                 replies_path.c_str());
    return 1;
  }

  JsonValue summary = JsonValue::Object();
  summary.Set("requests", JsonValue::Int(static_cast<int64_t>(loop.size())));
  summary.Set("failed", JsonValue::Int(failed));
  summary.Set("untraced_ns", JsonValue::Int(untraced_ns));
  if (tracing) {
    int64_t traced_ns = 0;
    for (const Tracer::Span& s : tracer.spans()) {
      if (s.parent < 0) traced_ns += s.end_ns - s.start_ns;
    }
    Status written = WriteTrace(trace_path, tracer, counters);
    if (!written.ok()) {
      std::fprintf(stderr, "perfbench_replay: %s\n",
                   written.ToString().c_str());
      return 1;
    }
    summary.Set("traced_ns", JsonValue::Int(traced_ns));
    summary.Set("mismatches", JsonValue::Int(mismatches));
    summary.Set("pool", TimePoolClasses(service, plan.value()));
  }
  std::printf("%s\n", WriteJson(summary).c_str());
  return 0;
}

}  // namespace
}  // namespace cloudview

int main(int argc, char** argv) { return cloudview::Main(argc, argv); }
