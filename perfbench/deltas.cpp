#include "deltas.hpp"

#include <algorithm>
#include <set>
#include <sstream>
#include <stdexcept>

namespace perfbench {

std::uint64_t SplitMix64::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t SplitMix64::below(std::uint64_t bound) {
  // Multiply-shift range reduction; the bias is below 2^-40 for the
  // small bounds used here.
  return static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(next()) * bound) >> 64);
}

namespace {

struct Window {
  std::int64_t x0 = 0, y0 = 0, x1 = -1, y1 = -1;
  bool contains(const Cell& c) const {
    return c.first >= x0 && c.first <= x1 && c.second >= y0 &&
           c.second <= y1;
  }
};

Window bounding_box(const std::vector<Cell>& cells) {
  Window w;
  if (cells.empty()) return w;
  w.x0 = w.x1 = cells.front().first;
  w.y0 = w.y1 = cells.front().second;
  for (const Cell& c : cells) {
    w.x0 = std::min(w.x0, c.first);
    w.x1 = std::max(w.x1, c.first);
    w.y0 = std::min(w.y0, c.second);
    w.y1 = std::max(w.y1, c.second);
  }
  return w;
}

bool contains(const std::vector<Cell>& cells, const Cell& c) {
  return std::find(cells.begin(), cells.end(), c) != cells.end();
}

void erase_swap(std::vector<Cell>& cells, const Cell& c) {
  const auto it = std::find(cells.begin(), cells.end(), c);
  if (it == cells.end()) throw std::logic_error("erase of an absent cell");
  *it = cells.back();
  cells.pop_back();
}

}  // namespace

DeltaGenerator::DeltaGenerator(std::vector<Cell> initial, std::uint64_t seed,
                               std::uint64_t client, std::size_t mutations)
    : fleet_(std::move(initial)),
      mutations_(mutations),
      rng_(seed ^ (0x9e3779b97f4a7c15ull * (client + 1))) {
  if (fleet_.empty()) throw std::invalid_argument("empty starting fleet");
  const Window w = bounding_box(fleet_);
  x0_ = w.x0;
  y0_ = w.y0;
  width_ = w.x1 - w.x0 + 1;
  height_ = w.y1 - w.y0 + 1;
  occupied_.assign(static_cast<std::size_t>(width_ * height_), 0);
  for (const Cell& c : fleet_) {
    if (occupied_[slot(c)] != 0) {
      throw std::invalid_argument("starting fleet repeats a cell");
    }
    occupied_[slot(c)] = 1;
  }
  for (std::int64_t x = x0_; x < x0_ + width_; ++x) {
    for (std::int64_t y = y0_; y < y0_ + height_; ++y) {
      if (!live({x, y})) free_.emplace_back(x, y);
    }
  }
  start_size_ = fleet_.size();
  min_size_ = start_size_ - start_size_ / 50;
}

std::size_t DeltaGenerator::slot(const Cell& c) const {
  return static_cast<std::size_t>((c.first - x0_) * height_ +
                                  (c.second - y0_));
}

Cell DeltaGenerator::pick_live(const std::vector<Cell>& used) {
  for (int attempt = 0; attempt < 64; ++attempt) {
    const Cell& c = fleet_[rng_.below(fleet_.size())];
    if (!contains(used, c)) return c;
  }
  for (const Cell& c : fleet_) {
    if (!contains(used, c)) return c;
  }
  throw std::logic_error("no unused live sensor");
}

Cell DeltaGenerator::pick_free(const std::vector<Cell>& used) {
  for (int attempt = 0; attempt < 64; ++attempt) {
    const Cell& c = free_[rng_.below(free_.size())];
    if (!contains(used, c)) return c;
  }
  for (const Cell& c : free_) {
    if (!contains(used, c)) return c;
  }
  throw std::logic_error("no unused free cell");
}

std::vector<Mutation> DeltaGenerator::next() {
  std::vector<Mutation> delta;
  std::vector<Cell> used;
  std::size_t size = fleet_.size();  // fleet size once the delta applies
  std::size_t live_left = fleet_.size();
  std::size_t free_left = free_.size();
  for (std::size_t m = 0; m < mutations_; ++m) {
    std::vector<Mutation::Kind> kinds;
    if (live_left > 0 && size > min_size_) {
      kinds.push_back(Mutation::Kind::kRemove);
    }
    if (free_left > 0 && size < start_size_) {
      kinds.push_back(Mutation::Kind::kAdd);
    }
    if (live_left > 0 && free_left > 0) kinds.push_back(Mutation::Kind::kMove);
    if (kinds.empty()) break;
    Mutation mut;
    mut.kind = kinds[rng_.below(kinds.size())];
    switch (mut.kind) {
      case Mutation::Kind::kRemove:
        mut.at = pick_live(used);
        --live_left;
        --size;
        break;
      case Mutation::Kind::kAdd:
        mut.at = pick_free(used);
        --free_left;
        ++size;
        break;
      case Mutation::Kind::kMove:
        mut.at = pick_live(used);
        used.push_back(mut.at);
        mut.to = pick_free(used);
        used.push_back(mut.to);
        --live_left;
        --free_left;
        break;
    }
    if (mut.kind != Mutation::Kind::kMove) used.push_back(mut.at);
    delta.push_back(mut);
  }
  apply(delta);
  return delta;
}

void DeltaGenerator::apply(const std::vector<Mutation>& delta) {
  fleet_ = apply_delta(std::move(fleet_), delta);
  for (const Mutation& m : delta) {
    switch (m.kind) {
      case Mutation::Kind::kRemove:
        occupied_[slot(m.at)] = 0;
        free_.push_back(m.at);
        break;
      case Mutation::Kind::kAdd:
        occupied_[slot(m.at)] = 1;
        erase_swap(free_, m.at);
        break;
      case Mutation::Kind::kMove:
        occupied_[slot(m.at)] = 0;
        occupied_[slot(m.to)] = 1;
        erase_swap(free_, m.to);
        free_.push_back(m.at);
        break;
    }
  }
}

std::vector<Cell> apply_delta(std::vector<Cell> fleet,
                              const std::vector<Mutation>& delta) {
  // PlanSession order: removals, then moves, then additions.
  for (const Mutation& m : delta) {
    if (m.kind != Mutation::Kind::kRemove) continue;
    const auto it = std::find(fleet.begin(), fleet.end(), m.at);
    if (it == fleet.end()) throw std::invalid_argument("remove: no sensor");
    fleet.erase(it);
  }
  for (const Mutation& m : delta) {
    if (m.kind != Mutation::Kind::kMove) continue;
    const auto it = std::find(fleet.begin(), fleet.end(), m.at);
    if (it == fleet.end()) throw std::invalid_argument("move: no sensor");
    *it = m.to;
  }
  for (const Mutation& m : delta) {
    if (m.kind == Mutation::Kind::kAdd) fleet.push_back(m.at);
  }
  return fleet;
}

std::string to_script(const std::vector<Mutation>& delta) {
  std::ostringstream os;
  os << "step 1\n";
  for (const Mutation& m : delta) {
    switch (m.kind) {
      case Mutation::Kind::kRemove:
        os << "remove " << m.at.first << ' ' << m.at.second << '\n';
        break;
      case Mutation::Kind::kAdd:
        os << "add " << m.at.first << ' ' << m.at.second << '\n';
        break;
      case Mutation::Kind::kMove:
        os << "move " << m.at.first << ' ' << m.at.second << ' '
           << m.to.first << ' ' << m.to.second << '\n';
        break;
    }
  }
  return os.str();
}

std::string validate_delta(const std::vector<Cell>& pre_fleet,
                           const std::vector<Cell>& window_fleet,
                           std::size_t min_size,
                           const std::vector<Mutation>& delta) {
  const Window window = bounding_box(window_fleet);
  const std::set<Cell> live(pre_fleet.begin(), pre_fleet.end());
  std::set<Cell> seen;
  std::size_t size = pre_fleet.size();
  const auto fresh = [&seen](const Cell& c) { return seen.insert(c).second; };
  const auto free_cell = [&](const Cell& c) {
    return window.contains(c) && live.count(c) == 0;
  };
  for (const Mutation& m : delta) {
    if (!fresh(m.at)) return "position repeated within the delta";
    switch (m.kind) {
      case Mutation::Kind::kRemove:
        if (live.count(m.at) == 0) return "remove of a cell without a sensor";
        --size;
        break;
      case Mutation::Kind::kAdd:
        if (!free_cell(m.at)) return "add to a cell that is not free";
        ++size;
        break;
      case Mutation::Kind::kMove:
        if (live.count(m.at) == 0) return "move of a cell without a sensor";
        if (!fresh(m.to)) return "position repeated within the delta";
        if (!free_cell(m.to)) return "move to a cell that is not free";
        break;
    }
  }
  if (size < min_size || size > window_fleet.size()) {
    return "fleet size leaves its band";
  }
  return "";
}

}  // namespace perfbench
