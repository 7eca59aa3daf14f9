// series: set-up builds the base scenario and one SnapshotSeries; one op is
// one advance(), i.e. one day of the Fig 2/6/9 temporal replay. Whether a
// day carries membership changes is decided before its op, from the pure
// EcosystemEvolution::delta_for_day. If no segment before the last has timed
// a whole-class invalidation day, one that drops at least half the
// propagation cache, the last segment runs past its share of the timed
// window until it has. After each segment one seeded day --
// a membership day and a quiet day on alternate segments -- is rebuilt cold
// and must equal the incremental DayOutputs. Every day is not rebuilt:
// that oracle costs more than the days it checks.
#include <cstdio>
#include <stdexcept>

#include "harness.h"
#include "topogen/evolution.h"
#include "topogen/scenario.h"
#include "util/rng.h"
#include "workload.h"

namespace perfbench {

namespace {

using namespace manrs;

// The last segment waits for a whole-class invalidation day up to this day at
// most; its summary says so when none came.
constexpr int kWholeClassWaitDays = 120;

struct AdvancedDay {
  int op = 0;
  bool membership = false;
  benchx::DayOutputs outputs;
};

struct WholeClassDay {
  int day = 0;
  double ms = 0.0;
};

class SeriesWorkload : public Workload {
 public:
  explicit SeriesWorkload(const Context& ctx) : ctx_(ctx) {}

  // A day costs little next to a set-up, and what it costs varies with the
  // scenario: eight segments of ~14 days average the seeds out better than
  // four of ~28.
  int segments() const override { return 8; }

  void set_up(uint64_t seed, Tracer& tracer) override {
    series_.reset();
    scenario_.reset();
    days_.clear();
    whole_class_.clear();
    checked_day_ = 0;
    seed_ = seed;
    ++segment_;
    topogen::ScenarioConfig config = ctx_.scenario;
    config.seed = seed;
    evolution_.seed = seed;
    {
      Tracer::Scope s = tracer.span("topogen.build_scenario");
      scenario_ =
          std::make_unique<topogen::Scenario>(topogen::build_scenario(config));
    }
    {
      Tracer::Scope s = tracer.span("series.construct");
      series_ = std::make_unique<benchx::SnapshotSeries>(*scenario_, evolution_);
    }
    // Warm-up: day 1 (a membership day) and pool start-up.
    Tracer::Scope s = tracer.span("series.warm_up");
    series_->advance();
  }

  OpResult op(int id, Tracer& tracer) override {
    const int day = series_->day() + 1;
    bool membership = false;
    {
      Tracer::Scope s = tracer.span("topogen.delta");
      membership = !series_->evolution().delta_for_day(day).members.empty();
    }
    const sim::PropagationCacheStats before = series_->simulator().cache_stats();
    double ms = 0.0;
    {
      Tracer::Scope s = tracer.span(membership ? "series.membership_day"
                                               : "series.quiet_day");
      const Clock::time_point t0 = Clock::now();
      series_->advance();
      ms = ms_between(t0, Clock::now());
      if (tracer.active()) {
        const benchx::DayEngineStats& st = series_->last_stats();
        const sim::PropagationCacheStats after =
            series_->simulator().cache_stats();
        s.count("series.delta_ops", static_cast<double>(st.delta_ops));
        s.count("series.reclassified", static_cast<double>(st.reclassified));
        s.count("series.groups", static_cast<double>(st.groups));
        s.count("series.groups_reused", static_cast<double>(st.groups_reused));
        s.count("simulator.cache_hits",
                static_cast<double>(after.hits - before.hits));
        s.count("simulator.cache_misses",
                static_cast<double>(after.misses - before.misses));
        s.count("simulator.cache_invalidated",
                static_cast<double>(after.invalidated - before.invalidated));
      }
    }
    // A whole-class invalidation day drops at least half the cache.
    const uint64_t invalidated =
        series_->simulator().cache_stats().invalidated - before.invalidated;
    if (before.entries > 0 && 2 * invalidated >= before.entries) {
      whole_class_.push_back(WholeClassDay{day, ms});
      ++run_whole_class_days_;
    }
    days_.push_back(AdvancedDay{id, membership, series_->outputs()});
    return OpResult{ms, true};
  }

  bool exhausted() const override {
    return series_->day() + 1 >= evolution_.horizon_days;
  }

  bool needs_more() const override {
    return run_whole_class_days_ == 0 &&
           series_->day() < kWholeClassWaitDays;
  }

  std::vector<int> end_segment() override {
    const bool membership = segment_ % 2 == 1;
    std::vector<const AdvancedDay*> pool;
    for (const AdvancedDay& d : days_) {
      if (d.membership == membership) pool.push_back(&d);
    }
    if (pool.empty()) {
      throw std::runtime_error("series: segment too short to hold a " +
                               std::string(membership ? "membership" : "quiet") +
                               " day");
    }
    util::Rng rng(seed_ ^ 0x5e41e5c4ec4ull);
    const AdvancedDay& d = *pool[rng.uniform(pool.size())];
    benchx::DayOutputs cold = series_->cold_rebuild(d.outputs.day);
    if (ctx_.perturb && segment_ == 1) cold.transit_digest ^= 1;
    checked_day_ = d.outputs.day;
    if (cold == d.outputs) return {};
    return {d.op};
  }

  std::string summary() const override {
    size_t membership = 0;
    for (const AdvancedDay& d : days_) membership += d.membership ? 1 : 0;
    std::string whole_class;
    for (const WholeClassDay& w : whole_class_) {
      char item[48];
      std::snprintf(item, sizeof item, "%sday %d %.1f ms",
                    whole_class.empty() ? "" : ", ", w.day, w.ms);
      whole_class += item;
    }
    if (whole_class.empty()) {
      whole_class = "NONE by day " + std::to_string(series_->day());
    }
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "%zu ASes; timed days 2..%d: %zu membership, %zu quiet; "
                  "cold-checked day %d; whole-class invalidation: ",
                  scenario_->config.total_as_count(), series_->day(),
                  membership, days_.size() - membership, checked_day_);
    return buf + whole_class;
  }

 private:
  Context ctx_;
  topogen::EvolutionConfig evolution_;
  std::unique_ptr<topogen::Scenario> scenario_;
  std::unique_ptr<benchx::SnapshotSeries> series_;
  std::vector<AdvancedDay> days_;
  std::vector<WholeClassDay> whole_class_;  // this segment's
  size_t run_whole_class_days_ = 0;        // over every segment of the run
  uint64_t seed_ = 0;
  int segment_ = 0;  // 1-based index of the current segment
  int checked_day_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_series(const Context& ctx) {
  return std::make_unique<SeriesWorkload>(ctx);
}

}  // namespace perfbench
