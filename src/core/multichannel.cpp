#include "core/multichannel.hpp"

#include <limits>
#include <sstream>
#include <stdexcept>

namespace latticesched {

namespace {
std::uint32_t checked_ceil_div(std::uint32_t num, std::uint32_t den) {
  if (den == 0) {
    throw std::invalid_argument("MultiChannelSchedule: zero channels");
  }
  return (num + den - 1) / den;
}
}  // namespace

MultiChannelSchedule::MultiChannelSchedule(TilingSchedule base,
                                           std::uint32_t channels)
    : base_(std::move(base)), channels_(channels),
      period_(checked_ceil_div(base_.period(), channels)) {}

SlotChannel MultiChannelSchedule::assignment_of(const Point& p) const {
  const std::uint32_t e = base_.slot_of(p);
  return SlotChannel{e / channels_, e % channels_};
}

std::uint32_t MultiChannelSchedule::lower_bound_slots() const {
  const std::uint32_t clique = base_.lower_bound_slots();
  return (clique + channels_ - 1) / channels_;
}

std::string MultiChannelSchedule::description() const {
  std::ostringstream os;
  os << "multichannel(" << base_.description() << ", c=" << channels_
     << ", m=" << period_ << ")";
  return os.str();
}

MultiChannelSlots assign_multichannel(const MultiChannelSchedule& schedule,
                                      const Deployment& d) {
  MultiChannelSlots out;
  out.period = schedule.period();
  out.channels = schedule.channels();
  out.assignment.reserve(d.size());
  for (std::size_t i = 0; i < d.size(); ++i) {
    out.assignment.push_back(schedule.assignment_of(d.position(i)));
  }
  return out;
}

MultiChannelSlots fold_channels(const SensorSlots& slots,
                                std::uint32_t channels) {
  MultiChannelSlots out;
  out.channels = channels;
  out.period = checked_ceil_div(slots.period, channels);
  out.assignment.reserve(slots.slot.size());
  for (std::uint32_t e : slots.slot) {
    out.assignment.push_back(SlotChannel{e / channels, e % channels});
  }
  return out;
}

CollisionReport check_collision_free_multichannel(
    const Deployment& d, const MultiChannelSlots& slots) {
  if (slots.assignment.size() != d.size()) {
    throw std::invalid_argument(
        "check_collision_free_multichannel: size mismatch");
  }
  if (d.size() == 0) return CollisionReport{};
  const std::uint64_t buckets =
      std::uint64_t{slots.period} * slots.channels;
  if (buckets > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument(
        "check_collision_free_multichannel: period x channels overflows");
  }
  // Bucket (slot, channel) flattens to slot * channels + channel, so the
  // single-channel checker visits buckets, sensors and coverage points in
  // bucket order: the witness and pair count carry over as they are.
  SensorSlots flat;
  flat.period = static_cast<std::uint32_t>(buckets);
  flat.slot.reserve(d.size());
  for (const SlotChannel& a : slots.assignment) {
    if (a.slot >= slots.period || a.channel >= slots.channels) {
      throw std::invalid_argument(
          "check_collision_free_multichannel: assignment out of range");
    }
    flat.slot.push_back(a.slot * slots.channels + a.channel);
  }
  CollisionReport report = check_collision_free(d, flat);
  if (report.witness.has_value()) report.witness->slot /= slots.channels;
  return report;
}

}  // namespace latticesched
