// PricingModel: a CSP's complete price sheet plus billing semantics.
//
// Mirrors the paper's three billed dimensions (Section 2.2): computing
// (per instance-hour, Table 2), bandwidth (tiered per GB out, in free,
// Table 3), and storage (tiered per GB-month, Table 4).

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>

#include "common/data_size.h"
#include "common/duration.h"
#include "common/enum_names.h"
#include "common/money.h"
#include "common/months.h"
#include "common/result.h"
#include "pricing/instance_type.h"
#include "pricing/tiered_rate.h"

namespace cloudview {

/// \brief Smallest unit of compute time the CSP charges for.
///
/// The paper's worked examples round up to the hour ("every started hour is
/// charged"); its Section 6 experiments only make sense with finer
/// granularity (see DESIGN.md §5.4).
enum class BillingGranularity {
  kHour,
  kMinute,
  kSecond,
};

template <>
struct EnumNames<BillingGranularity> {
  static constexpr EnumName<BillingGranularity> kTable[] = {
      {"hour", BillingGranularity::kHour},
      {"minute", BillingGranularity::kMinute},
      {"second", BillingGranularity::kSecond}};
};

/// \brief How a storage schedule is applied to a volume.
enum class StorageBilling {
  /// Each byte billed at its own bracket's rate (real AWS semantics).
  kMarginalTiers,
  /// Whole volume billed at the rate of the bracket containing it
  /// (the paper's Formula 5 as written).
  kFlatBracket,
};

/// \brief Per-request I/O charges (S3/object-store style "per 10,000
/// requests" billing). Zero price = the CSP does not bill requests.
/// Beyond the paper's Tables 2-4; see DESIGN.md §7.
struct RequestCharge {
  /// Price per 10,000 billable requests.
  Money price_per_10k;
  /// Billable I/O requests one query execution issues.
  int64_t requests_per_query = 1;

  bool is_billed() const { return !price_per_10k.is_zero(); }
};

/// \brief Free allowances, consumed from the *bottom* of each tier
/// schedule (the first free bytes are the ones the lowest bracket would
/// have billed). The storage allowance is monthly — it rides the
/// GB-month schedule, so a 12-month period waives 12x the bytes. The
/// transfer and request allowances apply once per billed workload
/// evaluation: the cost models bill workload sessions, not calendar
/// months, so there is no per-month transfer volume to meter them
/// against. Beyond the paper's Tables 2-4; see DESIGN.md §7.
struct FreeTier {
  /// Out-bound transfer volume waived per billed evaluation.
  DataSize transfer_out = DataSize::Zero();
  /// Stored volume waived per month.
  DataSize storage = DataSize::Zero();
  /// Billable requests waived per billed evaluation.
  int64_t requests = 0;

  bool is_empty() const {
    return transfer_out.is_zero() && storage.is_zero() && requests == 0;
  }
};

/// \brief Everything needed to build a PricingModel.
struct PricingModelOptions {
  std::string name;
  InstanceCatalog instances;
  TieredRate storage_per_gb_month = TieredRate::Flat(Money::Zero());
  TieredRate transfer_out_per_gb = TieredRate::Flat(Money::Zero());
  TieredRate transfer_in_per_gb = TieredRate::Flat(Money::Zero());
  BillingGranularity compute_granularity = BillingGranularity::kHour;
  StorageBilling storage_billing = StorageBilling::kFlatBracket;
  /// Per-request I/O charges (default: not billed).
  RequestCharge requests;
  /// Free allowances (default: none).
  FreeTier free_tier;
  /// Inter-AZ egress schedule (per GB crossing an availability-zone
  /// boundary within the region; default: free). Multi-AZ architectures
  /// bill replicated writes against it (catalog/architecture.h).
  TieredRate inter_az_per_gb = TieredRate::Flat(Money::Zero());
  /// Expected spot interruptions per million instance-billing-windows,
  /// in [0, 1'000'000). Zero with spot rates present models
  /// never-reclaimed capacity.
  int64_t spot_interruption_ppm = 0;
};

/// \brief Optional semantic overrides applied on top of a provider's
/// registered sheet (ScenarioConfig::pricing_overrides). Only billing
/// *semantics* are overridable — rates stay the provider's.
struct PricingOverrides {
  std::optional<BillingGranularity> compute_granularity;
  std::optional<StorageBilling> storage_billing;

  /// \brief An override set with only the compute granularity pinned —
  /// ScenarioConfig's default (per-second billing; DESIGN.md §5.4).
  static PricingOverrides ComputeGranularityOnly(BillingGranularity g) {
    PricingOverrides overrides;
    overrides.compute_granularity = g;
    return overrides;
  }
};

/// \brief A CSP price sheet: evaluates compute, storage and transfer
/// charges. Immutable once built.
class PricingModel {
 public:
  /// \brief Validates and builds. The instance catalog must be non-empty
  /// with non-negative rates and positive compute units; tier schedules
  /// must be monotonic with non-negative rates; request charges and free
  /// allowances must be non-negative.
  static Result<PricingModel> Create(PricingModelOptions options);

  const std::string& name() const { return options_.name; }
  const InstanceCatalog& instances() const { return options_.instances; }
  const TieredRate& storage_schedule() const {
    return options_.storage_per_gb_month;
  }
  const TieredRate& transfer_out_schedule() const {
    return options_.transfer_out_per_gb;
  }
  BillingGranularity compute_granularity() const {
    return options_.compute_granularity;
  }
  StorageBilling storage_billing() const { return options_.storage_billing; }
  const RequestCharge& request_charge() const { return options_.requests; }
  const FreeTier& free_tier() const { return options_.free_tier; }
  const TieredRate& inter_az_schedule() const {
    return options_.inter_az_per_gb;
  }
  int64_t spot_interruption_ppm() const {
    return options_.spot_interruption_ppm;
  }

  /// \brief Charge for running `count` instances of `type` for `busy` time
  /// each. Rounds `busy` up to the billing granularity per instance
  /// (paper Formula 4 with RoundUp, Example 2). When `type` carries a
  /// reserved-rate pair, the cheaper of on-demand and
  /// upfront-plus-discounted-rate is billed per instance.
  Money ComputeCost(const InstanceType& type, Duration busy,
                    int64_t count = 1) const;

  /// \brief Exact (un-rounded) pro-rata compute charge; used to split a
  /// single rental session's rounded bill into per-activity components.
  Money ComputeCostExact(const InstanceType& type, Duration busy,
                         int64_t count = 1) const;

  /// \brief Monthly storage charge for a constant volume, under this
  /// model's StorageBilling semantics.
  Money MonthlyStorageCost(DataSize volume) const;

  /// \brief Storage charge for holding `volume` during `span`
  /// (pro-rata at milli-month resolution) — one interval of Formula 5.
  Money StorageCost(DataSize volume, Months span) const;

  /// \brief Out-bound transfer charge for `volume` (always marginal tiers;
  /// paper Example 1 bills only beyond the free first GB).
  Money TransferOutCost(DataSize volume) const;

  /// \brief In-bound transfer charge (zero for AWS-like models).
  Money TransferInCost(DataSize volume) const;

  /// \brief Charge for `volume` crossing an AZ boundary within the
  /// region (always marginal tiers; no free allowance applies).
  Money InterAzCost(DataSize volume) const;

  /// \brief Charge for `num_requests` billable I/O requests, after the
  /// free-request allowance. Zero when requests are not billed.
  Money RequestCost(int64_t num_requests) const;

  /// \brief Copy of this model with a different compute granularity
  /// (used by the billing-granularity ablation).
  PricingModel WithComputeGranularity(BillingGranularity g) const;

  /// \brief Copy of this model with different storage semantics.
  PricingModel WithStorageBilling(StorageBilling b) const;

  /// \brief Copy of this model with `overrides` applied.
  PricingModel WithOverrides(const PricingOverrides& overrides) const;

 private:
  explicit PricingModel(PricingModelOptions options)
      : options_(std::move(options)) {}

  PricingModelOptions options_;
};

/// \brief Rounds `busy` up to whole billing units and returns the billed
/// duration (e.g. 49.2 h -> 50 h under kHour).
Duration RoundUpToGranularity(Duration busy, BillingGranularity g);

/// \brief Human-readable name, e.g. "hour".
const char* ToString(BillingGranularity g);
const char* ToString(StorageBilling b);

}  // namespace cloudview

