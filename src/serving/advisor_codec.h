// JSON codec for the advisor request/response pair (DESIGN.md §14).
//
// Wire conventions:
//   - Exact unit types travel as int64 fields with a unit suffix:
//     Money as `*_micros`, Duration as `*_ms`, DataSize as `*_bytes`,
//     Months as `*_milli_months`. Doubles are reserved for genuinely
//     real-valued knobs (alpha, drift rates, gap fractions), so every
//     monetary/temporal quantity round-trips bit-exactly.
//   - Requests are strict: unknown keys, wrong types, unknown enum
//     names and values the member's type cannot hold are
//     InvalidArgument naming the field's path and the accepted values,
//     so a typo'd knob never falls back to a default. Value ranges are
//     checked once, mostly in core/ when the request runs (README,
//     "Request ranges").
//   - Responses serialize the payload selected by the response kind
//     plus the shared `meta` block; WriteJson output is deterministic
//     (insertion-ordered members).

#pragma once

#include <string>
#include <string_view>

#include "core/advisor.h"
#include "core/scenario.h"
#include "serving/json.h"

namespace cloudview {

/// \brief Parses a request object (already-parsed JSON). The in-process
/// fast-path fields (inline_workload, cluster_override, objective's
/// cancel token) have no wire form and come back null.
Result<AdvisorRequest> ParseAdvisorRequest(const JsonValue& json);

/// \brief Convenience: ParseJson + ParseAdvisorRequest.
Result<AdvisorRequest> ParseAdvisorRequestText(std::string_view text);

/// \brief Serializes a request (minus the in-process fast-path
/// fields). ParseAdvisorRequest(AdvisorRequestToJson(r)) reproduces
/// `r` field-for-field.
JsonValue AdvisorRequestToJson(const AdvisorRequest& request);

/// \brief Serializes a response: `kind`, `meta`, and the kind's
/// payload member.
JsonValue AdvisorResponseToJson(const AdvisorResponse& response);

/// \brief Parses the subset of ScenarioConfig exposed on the wire (the
/// server's create_session op): schema / provider / instance
/// selection, storage billing, and candidate-generation knobs. Strict
/// like ParseAdvisorRequest; fields absent from the JSON keep the
/// ScenarioConfig defaults.
Result<ScenarioConfig> ParseScenarioConfig(const JsonValue& json);

}  // namespace cloudview
