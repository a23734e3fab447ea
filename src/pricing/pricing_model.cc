#include "pricing/pricing_model.h"

#include "common/logging.h"
#include "common/str_format.h"

namespace cloudview {

namespace {

/// Re-validates a schedule held in the options. TieredRate::Create
/// already enforces this at construction; checking again here means a
/// PricingModel can never be built around a schedule that bypassed it.
Status ValidateSchedule(const char* what, const TieredRate& schedule) {
  DataSize prev = DataSize::Zero();
  const auto& tiers = schedule.tiers();
  for (size_t i = 0; i < tiers.size(); ++i) {
    if (tiers[i].rate_per_gb.is_negative()) {
      return Status::InvalidArgument(
          StrFormat("%s schedule: tier %zu has negative rate", what, i));
    }
    if (i > 0 && tiers[i].upper_bound <= prev) {
      return Status::InvalidArgument(StrFormat(
          "%s schedule: tier %zu bound not increasing", what, i));
    }
    prev = tiers[i].upper_bound;
  }
  return Status::OK();
}

}  // namespace

Duration RoundUpToGranularity(Duration busy, BillingGranularity g) {
  CV_CHECK(!busy.is_negative()) << "negative busy time";
  int64_t unit_ms = 0;
  switch (g) {
    case BillingGranularity::kHour:
      unit_ms = Duration::kMillisPerHour;
      break;
    case BillingGranularity::kMinute:
      unit_ms = Duration::kMillisPerMinute;
      break;
    case BillingGranularity::kSecond:
      unit_ms = Duration::kMillisPerSecond;
      break;
  }
  int64_t units = (busy.millis() + unit_ms - 1) / unit_ms;
  return Duration::FromMillis(units * unit_ms);
}

const char* ToString(BillingGranularity g) { return NameOf(g); }

const char* ToString(StorageBilling b) {
  switch (b) {
    case StorageBilling::kMarginalTiers:
      return "marginal-tiers";
    case StorageBilling::kFlatBracket:
      return "flat-bracket";
  }
  return "?";
}

Result<PricingModel> PricingModel::Create(PricingModelOptions options) {
  if (options.name.empty()) {
    return Status::InvalidArgument("pricing model needs a name");
  }
  if (options.instances.empty()) {
    return Status::InvalidArgument(
        "pricing model needs at least one instance type");
  }
  for (const InstanceType& type : options.instances.types()) {
    if (type.name.empty()) {
      return Status::InvalidArgument("instance type needs a name");
    }
    if (type.price_per_hour.is_negative()) {
      return Status::InvalidArgument(StrFormat(
          "instance '%s' has a negative hourly rate", type.name.c_str()));
    }
    if (type.compute_units <= 0.0) {
      return Status::InvalidArgument(
          StrFormat("instance '%s' needs positive compute units",
                    type.name.c_str()));
    }
    if (type.reserved_upfront.is_negative() ||
        type.reserved_price_per_hour.is_negative()) {
      return Status::InvalidArgument(
          StrFormat("instance '%s' has a negative reserved rate",
                    type.name.c_str()));
    }
    if (type.spot_price_per_hour.is_negative()) {
      return Status::InvalidArgument(
          StrFormat("instance '%s' has a negative spot rate",
                    type.name.c_str()));
    }
    if (type.has_spot_rate() &&
        type.spot_price_per_hour >= type.price_per_hour) {
      return Status::InvalidArgument(StrFormat(
          "instance '%s': spot hourly rate must undercut the "
          "on-demand rate",
          type.name.c_str()));
    }
  }
  CV_RETURN_IF_ERROR(
      ValidateSchedule("storage", options.storage_per_gb_month));
  CV_RETURN_IF_ERROR(
      ValidateSchedule("transfer-out", options.transfer_out_per_gb));
  CV_RETURN_IF_ERROR(
      ValidateSchedule("transfer-in", options.transfer_in_per_gb));
  CV_RETURN_IF_ERROR(
      ValidateSchedule("inter-az", options.inter_az_per_gb));
  if (options.spot_interruption_ppm < 0 ||
      options.spot_interruption_ppm >= 1'000'000) {
    return Status::InvalidArgument(
        "spot_interruption_ppm must lie in [0, 1000000)");
  }
  if (options.requests.price_per_10k.is_negative()) {
    return Status::InvalidArgument("negative per-request price");
  }
  if (options.requests.requests_per_query <= 0) {
    return Status::InvalidArgument(
        "requests_per_query must be positive");
  }
  if (options.free_tier.transfer_out.is_negative() ||
      options.free_tier.storage.is_negative() ||
      options.free_tier.requests < 0) {
    return Status::InvalidArgument("negative free-tier allowance");
  }
  return PricingModel(std::move(options));
}

Money PricingModel::ComputeCost(const InstanceType& type, Duration busy,
                                int64_t count) const {
  CV_CHECK(count >= 0) << "negative instance count";
  Duration billed =
      RoundUpToGranularity(busy, options_.compute_granularity);
  // price/hour x billed_ms / ms_per_hour, exactly.
  Money per_instance =
      type.price_per_hour.ScaleBy(billed.millis(),
                                  Duration::kMillisPerHour);
  if (type.has_reserved_rate()) {
    // The cheaper plan auto-applies: upfront buys the discounted rate.
    Money reserved =
        type.reserved_upfront +
        type.reserved_price_per_hour.ScaleBy(billed.millis(),
                                             Duration::kMillisPerHour);
    if (reserved < per_instance) per_instance = reserved;
  }
  return per_instance * count;
}

Money PricingModel::ComputeCostExact(const InstanceType& type,
                                     Duration busy, int64_t count) const {
  CV_CHECK(count >= 0) << "negative instance count";
  CV_CHECK(!busy.is_negative()) << "negative busy time";
  return type.price_per_hour.ScaleBy(busy.millis(),
                                     Duration::kMillisPerHour) *
         count;
}

Money PricingModel::MonthlyStorageCost(DataSize volume) const {
  const TieredRate& schedule = options_.storage_per_gb_month;
  DataSize free = options_.free_tier.storage;
  switch (options_.storage_billing) {
    case StorageBilling::kMarginalTiers: {
      if (free.is_zero()) return schedule.MarginalCost(volume);
      // The allowance consumes the bottom of the schedule: the first
      // `free` bytes are the ones the lowest bracket would have billed.
      DataSize waived = volume < free ? volume : free;
      return schedule.MarginalCost(volume) - schedule.MarginalCost(waived);
    }
    case StorageBilling::kFlatBracket: {
      if (free.is_zero()) return schedule.FlatBracketCost(volume);
      if (volume <= free) return Money::Zero();
      // Bracket position is set by the full volume; only the excess
      // beyond the allowance is billed at that bracket's rate.
      return schedule.RateFor(volume).ScaleBy((volume - free).bytes(),
                                              DataSize::kBytesPerGB);
    }
  }
  return Money::Zero();
}

Money PricingModel::StorageCost(DataSize volume, Months span) const {
  CV_CHECK(!span.is_negative()) << "negative storage span";
  return MonthlyStorageCost(volume).ScaleBy(span.milli(),
                                            Months::kMilliPerMonth);
}

Money PricingModel::TransferOutCost(DataSize volume) const {
  const TieredRate& schedule = options_.transfer_out_per_gb;
  DataSize free = options_.free_tier.transfer_out;
  if (free.is_zero()) return schedule.MarginalCost(volume);
  DataSize waived = volume < free ? volume : free;
  return schedule.MarginalCost(volume) - schedule.MarginalCost(waived);
}

Money PricingModel::TransferInCost(DataSize volume) const {
  return options_.transfer_in_per_gb.MarginalCost(volume);
}

Money PricingModel::InterAzCost(DataSize volume) const {
  return options_.inter_az_per_gb.MarginalCost(volume);
}

Money PricingModel::RequestCost(int64_t num_requests) const {
  CV_CHECK(num_requests >= 0) << "negative request count";
  if (!options_.requests.is_billed()) return Money::Zero();
  int64_t billable = num_requests - options_.free_tier.requests;
  if (billable <= 0) return Money::Zero();
  return options_.requests.price_per_10k.ScaleBy(billable, 10'000);
}

PricingModel PricingModel::WithComputeGranularity(
    BillingGranularity g) const {
  PricingModelOptions copy = options_;
  copy.compute_granularity = g;
  return PricingModel(std::move(copy));
}

PricingModel PricingModel::WithStorageBilling(StorageBilling b) const {
  PricingModelOptions copy = options_;
  copy.storage_billing = b;
  return PricingModel(std::move(copy));
}

PricingModel PricingModel::WithOverrides(
    const PricingOverrides& overrides) const {
  PricingModelOptions copy = options_;
  if (overrides.compute_granularity.has_value()) {
    copy.compute_granularity = *overrides.compute_granularity;
  }
  if (overrides.storage_billing.has_value()) {
    copy.storage_billing = *overrides.storage_billing;
  }
  return PricingModel(std::move(copy));
}

}  // namespace cloudview
