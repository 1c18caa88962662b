#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace perfbench {

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

Tracer::Scope::~Scope() {
  const std::size_t index = tracer_->open_.back();
  tracer_->open_.pop_back();
  tracer_->spans_[index].end_ms = tracer_->now_ms();
}

void Tracer::begin_op() {
  if (!open_.empty()) throw std::logic_error("begin_op inside an open span");
  counters_.emplace_back();
}

Tracer::Scope Tracer::span(std::string name) {
  if (counters_.empty()) throw std::logic_error("span before begin_op");
  Span s;
  s.name = std::move(name);
  s.op = counters_.size() - 1;
  s.parent = open_.empty() ? -1 : static_cast<int>(open_.back());
  s.start_ms = now_ms();
  s.end_ms = s.start_ms;
  spans_.push_back(std::move(s));
  open_.push_back(spans_.size() - 1);
  return Scope(this);
}

void Tracer::count(const std::string& name, double value) {
  if (counters_.empty()) throw std::logic_error("count before begin_op");
  counters_.back()[name] += value;
}

double Tracer::now_ms() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

std::string Tracer::to_json() const {
  const std::vector<double> self = self_times(spans_);
  std::ostringstream os;
  os.precision(6);
  os << std::fixed;
  os << "{\"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i == 0 ? "\n  " : ",\n  ") << "{\"id\": " << i << ", \"name\": \""
       << s.name << "\", \"op\": " << s.op << ", \"parent\": " << s.parent
       << ", \"start_ms\": " << s.start_ms << ", \"end_ms\": " << s.end_ms
       << ", \"self_ms\": " << self[i] << "}";
  }
  os << "\n], \"counters\": [";
  for (std::size_t op = 0; op < counters_.size(); ++op) {
    os << (op == 0 ? "\n  {" : ",\n  {");
    bool first = true;
    for (const auto& [name, value] : counters_[op]) {
      os << (first ? "" : ", ") << "\"" << name << "\": " << value;
      first = false;
    }
    os << "}";
  }
  os << "\n]}\n";
  return os.str();
}

std::string layer_of(const std::string& name) {
  return name.substr(0, name.find('.'));
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const int parent = spans[i].parent;
    if (parent >= 0) children[static_cast<std::size_t>(parent)].push_back(i);
  }
  std::vector<double> self(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double lo = spans[i].start_ms;
    const double hi = spans[i].end_ms;
    std::vector<std::pair<double, double>> cover;
    for (std::size_t c : children[i]) {
      const double a = std::max(lo, spans[c].start_ms);
      const double b = std::min(hi, spans[c].end_ms);
      if (b > a) cover.emplace_back(a, b);
    }
    std::sort(cover.begin(), cover.end());
    double covered = 0.0;
    double reach = lo;
    for (const auto& [a, b] : cover) {
      const double from = std::max(a, reach);
      if (b > from) {
        covered += b - from;
        reach = b;
      }
    }
    self[i] = std::max(0.0, (hi - lo) - covered);
  }
  return self;
}

std::vector<OpProfile> profile_ops(
    const std::vector<Span>& spans,
    const std::vector<std::map<std::string, double>>& counters) {
  std::vector<OpProfile> ops(counters.size());
  for (std::size_t op = 0; op < counters.size(); ++op) {
    ops[op].counters = counters[op];
  }
  const std::vector<double> self = self_times(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.op >= ops.size()) continue;
    OpProfile& p = ops[s.op];
    const double duration = s.end_ms - s.start_ms;
    if (s.parent < 0) p.op_ms += duration;
    p.span_ms[s.name] += duration;
    p.layer_self_ms[layer_of(s.name)] += self[i];
  }
  return ops;
}

}  // namespace perfbench
