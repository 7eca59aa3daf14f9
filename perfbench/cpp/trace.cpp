#include "trace.h"

#include <cstdio>
#include <ostream>

namespace perfbench {

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
      .count();
}

Tracer::Scope::Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  Span span;
  span.name = name;
  span.parent = tracer_->open_.empty() ? -1 : tracer_->open_.back();
  span.op = tracer_->op_;
  index_ = static_cast<int>(tracer_->spans_.size());
  tracer_->spans_.push_back(std::move(span));
  tracer_->open_.push_back(index_);
  // Read the clock last, so the bookkeeping above is not inside the span.
  tracer_->spans_.back().start_us = tracer_->now_us();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  tracer_->spans_[static_cast<size_t>(index_)].end_us = tracer_->now_us();
  tracer_->open_.pop_back();
}

void Tracer::Scope::count(const char* name, double value) {
  if (tracer_ == nullptr) return;
  tracer_->spans_[static_cast<size_t>(index_)].counters.emplace_back(name,
                                                                     value);
}

void Tracer::write_chrome_json(std::ostream& out,
                               const std::string& metadata_json) const {
  out << "{\"displayTimeUnit\": \"ms\",\n\"otherData\": " << metadata_json
      << ",\n\"traceEvents\": [\n";
  char buf[160];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                  "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, ",
                  s.name.c_str(), s.op < 0 ? "setup" : "op", s.start_us,
                  s.end_us - s.start_us);
    out << buf << "\"args\": {\"span\": " << i << ", \"parent\": " << s.parent
        << ", \"op\": " << s.op;
    for (const auto& [name, value] : s.counters) {
      std::snprintf(buf, sizeof buf, ", \"%s\": %.17g", name.c_str(), value);
      out << buf;
    }
    out << "}}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
}

std::map<int, std::map<std::string, double>> per_op_totals(
    const std::vector<Span>& spans) {
  std::map<int, std::map<std::string, double>> totals;
  for (const Span& s : spans) {
    if (s.op < 0) continue;
    std::map<std::string, double>& op = totals[s.op];
    op[s.name + "_ms"] += s.ms();
    for (const auto& [name, value] : s.counters) op[name] += value;
  }
  return totals;
}

std::map<int, double> root_self_ms(const std::vector<Span>& spans) {
  std::map<int, double> self;
  for (const Span& s : spans) {
    if (s.op < 0) continue;
    if (s.parent < 0) {
      self[s.op] += s.ms();
    } else if (spans[static_cast<size_t>(s.parent)].parent < 0) {
      self[s.op] -= s.ms();
    }
  }
  return self;
}

}  // namespace perfbench
