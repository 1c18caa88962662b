#include "core/collision.hpp"

#include <sstream>
#include <stdexcept>

#include "lattice/point_index.hpp"
#include "util/csr.hpp"

namespace latticesched {

std::string CollisionReport::to_string() const {
  if (collision_free) return "collision-free";
  std::ostringstream os;
  os << "collision in slot " << witness->slot << ": sensors #"
     << witness->sensor_a << " and #" << witness->sensor_b
     << " both cover " << witness->point;
  return os.str();
}

namespace {

void validate(const Deployment& d, const SensorSlots& slots) {
  if (slots.slot.size() != d.size()) {
    throw std::invalid_argument("check_collision_free: size mismatch");
  }
  if (slots.period == 0) {
    throw std::invalid_argument("check_collision_free: zero period");
  }
  for (std::uint32_t i = 0; i < d.size(); ++i) {
    if (slots.slot[i] >= slots.period) {
      throw std::invalid_argument("check_collision_free: slot >= period");
    }
  }
}

/// Sensors grouped by slot as a CSR (row = slot, values = sensor ids in
/// ascending order, matching the seed's bucket fill order).
CsrU32 sensors_by_slot(const Deployment& d, const SensorSlots& slots) {
  CsrU32 by_slot;
  by_slot.begin_counting(slots.period);
  for (std::uint32_t i = 0; i < d.size(); ++i) by_slot.count(slots.slot[i]);
  by_slot.finish_counting();
  for (std::uint32_t i = 0; i < d.size(); ++i) by_slot.push(slots.slot[i], i);
  return by_slot;
}

}  // namespace

CollisionReport check_collision_free(const Deployment& d,
                                     const SensorSlots& slots) {
  validate(d, slots);
  const auto grid = d.coverage_grid();
  if (!grid.has_value()) return check_collision_free_reference(d, slots);
  // The grid holds every covered cell, so sensor i covers the cells
  // id_of(pos_i) + disp over its prototile's displacement table (in
  // canonical element order, the reference's visit order).
  std::vector<std::vector<std::int64_t>> disp(d.prototiles().size());
  for (std::size_t t = 0; t < disp.size(); ++t) {
    for (const Point& n : d.prototiles()[t].points()) {
      disp[t].push_back(grid->displacement(n));
    }
  }
  // Each sensor's own cell, computed in id order: the slot-major pass
  // below would otherwise stride through the positions.
  std::vector<std::uint32_t> cell_of(d.size());
  for (std::uint32_t i = 0; i < d.size(); ++i) {
    cell_of[i] = grid->id_of(d.position(i));
  }
  CollisionReport report;
  const CsrU32 by_slot = sensors_by_slot(d, slots);
  // stamp[id] == s + 1 marks grid cell `id` as covered in slot s by
  // owner[id]; stamps from earlier slots are simply stale, so the two
  // arrays are allocated once and never cleared.
  std::vector<std::uint32_t> stamp(grid->size(), 0);
  std::vector<std::uint32_t> owner(grid->size(), 0);
  for (std::uint32_t s = 0; s < slots.period; ++s) {
    const std::uint32_t mark = s + 1;
    for (std::uint32_t i : by_slot.row(s)) {
      for (const std::int64_t step : disp[d.type_of(i)]) {
        const auto id = static_cast<std::uint32_t>(cell_of[i] + step);
        if (stamp[id] == mark) {
          ++report.pairs_checked;
          if (report.collision_free) {
            report.collision_free = false;
            report.witness =
                CollisionWitness{s, static_cast<std::size_t>(owner[id]),
                                 static_cast<std::size_t>(i),
                                 grid->point_of(id)};
          }
        } else {
          stamp[id] = mark;
          owner[id] = i;
        }
      }
    }
  }
  return report;
}

CollisionReport check_collision_free_reference(const Deployment& d,
                                               const SensorSlots& slots) {
  validate(d, slots);
  CollisionReport report;
  // Bucket sensors by slot, then count coverage per lattice point.
  std::vector<std::vector<std::uint32_t>> by_slot(slots.period);
  for (std::uint32_t i = 0; i < d.size(); ++i) {
    by_slot[slots.slot[i]].push_back(i);
  }
  for (std::uint32_t s = 0; s < slots.period; ++s) {
    PointMap<std::uint32_t> first_cover;
    for (std::uint32_t i : by_slot[s]) {
      for (const Point& p : d.coverage_of(i)) {
        auto [it, inserted] = first_cover.emplace(p, i);
        if (!inserted) {
          ++report.pairs_checked;
          if (report.collision_free) {
            report.collision_free = false;
            report.witness =
                CollisionWitness{s, static_cast<std::size_t>(it->second),
                                 static_cast<std::size_t>(i), p};
          }
        }
      }
    }
  }
  return report;
}

CollisionReport check_collision_free(const Deployment& d,
                                     const Schedule& schedule) {
  return check_collision_free(d, assign_slots(schedule, d));
}

}  // namespace latticesched
