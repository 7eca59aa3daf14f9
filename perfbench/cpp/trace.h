// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded from the benchmark's own files, around each call into
// a src/ layer: name, start, end, parent span, op id, and counters attached
// to the span that produced them. Nothing is written until the run ends;
// write_chrome_json() then emits Chrome trace-event JSON, which Perfetto
// (ui.perfetto.dev) and chrome://tracing open directly.
//
// An inactive tracer records nothing and reads no clock: span() returns an
// empty scope, so untraced ops pay one branch per span site.
#pragma once

#include <chrono>
#include <iosfwd>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b);

struct Span {
  std::string name;
  double start_us = 0.0;  // since the tracer's origin
  double end_us = 0.0;
  int parent = -1;  // index into Tracer::spans(); -1 = root
  int op = -1;      // timed op id; -1 = set-up
  std::vector<std::pair<std::string, double>> counters;

  double ms() const { return (end_us - start_us) / 1000.0; }
};

class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Attach a counter to this span (no-op when inactive). Counters with
    /// the same name on one op's spans add up.
    void count(const char* name, double value);

   private:
    Tracer* tracer_ = nullptr;
    int index_ = -1;
  };

  void set_active(bool active) { active_ = active; }
  bool active() const { return active_; }
  /// Op id stamped on spans opened from now on.
  void set_op(int op) { op_ = op; }

  Scope span(const char* name) { return Scope(active_ ? this : nullptr, name); }

  const std::vector<Span>& spans() const { return spans_; }

  /// Chrome trace-event JSON ("X" complete events, one per span; parent,
  /// op id and counters under "args"). `metadata_json` is a JSON object
  /// written as the top-level "otherData".
  void write_chrome_json(std::ostream& out,
                         const std::string& metadata_json) const;

 private:
  double now_us() const;

  Clock::time_point origin_;
  bool active_ = false;
  int op_ = -1;
  std::vector<Span> spans_;
  std::vector<int> open_;  // stack of open span indices
};

/// Per-op sums over the spans of each op: "<span name>_ms" for durations
/// and each counter under its own name. Ops without spans are absent.
std::map<int, std::map<std::string, double>> per_op_totals(
    const std::vector<Span>& spans);

/// Per op: the op's root span duration minus its direct children's.
std::map<int, double> root_self_ms(const std::vector<Span>& spans);

}  // namespace perfbench
