// manrs_perfbench -- the repository benchmark (see perfbench/README.md).
//
//   manrs_perfbench --workload snapshot|series|ingest --seed N --seconds S
//                   --trace 0|1 [--threads T] [--scale tiny|default]
//                   [--git-rev REV] [--trace-out PATH] [--perturb]
//
// A run is the workload's segments, each seeded from N: set-up, then an
// equal share of S seconds of summed op wall time, as a closed loop. setup_s is
// the median set-up, the first counted from process start. --trace 0 reports the
// end-to-end metrics. --trace 1 runs the same op sequence with every other
// op traced, reports the per-layer metrics from the traced ops, the traced
// minus untraced op median as trace.overhead_ms, and writes the spans as
// Chrome trace-event JSON to --trace-out.
//
// stdout: a fingerprint line, human-readable metric lines, and as its last
// line one JSON object {"correct", "attempted", "failed", "metrics"}. Exit
// 0 when a result was printed; 1 on a run error; 2 on a usage error or a
// pool wider than the host (oversubscription is refused, not timed).
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "simulator/propagation.h"
#include "topogen/config.h"
#include "util/parallel.h"
#include "util/stats.h"
#include "util/strings.h"
#include "workload.h"

namespace {

using namespace perfbench;

const Clock::time_point kProcessStart = Clock::now();

// Each segment sets up from its own seed and gets an equal share of the
// timed window. Pooling several scenarios per run keeps the run-to-run
// spread of the metrics, which seed-to-seed input variation dominates, small.
uint64_t segment_seed(uint64_t seed, int k, int segments) {
  return seed * static_cast<uint64_t>(segments) + static_cast<uint64_t>(k);
}

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json ("end_to_end" and "per_layer"); selftest.py
// checks that they do.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},         {"op_ms_p50", "ms"},    {"op_ms_tail", "ms"},
    {"ops_per_s", "1/s"},     {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"topogen.build_scenario_ms", "ms"},
    {"topogen.delta_ms", "ms"},
    {"simulator.make_sim_ms", "ms"},
    {"simulator.propagate_ms", "ms"},
    {"simulator.collect_ms", "ms"},
    {"simulator.groups", "count"},
    {"simulator.sweeps", "count"},
    {"simulator.cache_hits", "count"},
    {"simulator.cache_misses", "count"},
    {"simulator.cache_invalidated", "count"},
    {"simulator.cache_hit_ratio", "ratio"},
    {"simulator.path_shared_ratio", "ratio"},
    {"rpki.validate_ms", "ms"},
    {"irr.validate_ms", "ms"},
    {"rpki.invalid", "count"},
    {"irr.invalid", "count"},
    {"ihr.build_ms", "ms"},
    {"ihr.transit_records", "count"},
    {"ihr.prefix_origin_records", "count"},
    {"core.stats_ms", "ms"},
    {"bgp.rib_entries", "count"},
    {"bgp.rib_prefixes", "count"},
    {"mrt.decode_ms", "ms"},
    {"mrt.records", "count"},
    {"mrt.bad_records", "count"},
    {"mrt.decode_mb_per_s", "MB/s"},
    {"mrt.fold_ms", "ms"},
    {"mrt.updates", "count"},
    {"mrt.withdrawals", "count"},
    {"mrt.fold_us_per_update", "us"},
    {"series.quiet_day_ms", "ms"},
    {"series.membership_day_ms", "ms"},
    {"series.delta_ops", "count"},
    {"series.reclassified", "count"},
    {"series.groups", "count"},
    {"series.groups_reused", "count"},
    {"snapshot.unattributed_ms", "ms"},
    {"trace.overhead_ms", "ms"},
};

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  size_t threads = 0;  // 0 = the widest pool, up to 4, that fits the host
  std::string scale = "default";
  std::string git_rev = "unknown";
  std::string trace_out;
  bool perturb = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "manrs_perfbench: %s\nusage: manrs_perfbench --workload "
               "snapshot|series|ingest --seed N --seconds S --trace 0|1 "
               "[--threads T] [--scale tiny|default] "
               "[--git-rev REV] [--trace-out PATH] [--perturb]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--perturb") {
      o.perturb = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    if (arg == "--workload") {
      o.workload = value;
    } else if (arg == "--seed") {
      const auto v = manrs::util::parse_uint<uint64_t>(value);
      if (!v) usage("--seed must be a whole number");
      o.seed = *v;
      have_seed = true;
    } else if (arg == "--seconds") {
      const auto v = manrs::util::parse_int<int>(value);
      if (!v || *v < 1) usage("--seconds must be a whole number >= 1");
      o.seconds = *v;
    } else if (arg == "--trace") {
      const auto v = manrs::util::parse_int<int>(value);
      if (!v || (*v != 0 && *v != 1)) usage("--trace must be 0 or 1");
      o.trace = *v;
    } else if (arg == "--threads") {
      const auto v = manrs::util::parse_uint<size_t>(value);
      if (!v || *v < 1) usage("--threads must be >= 1");
      o.threads = *v;
    } else if (arg == "--scale") {
      o.scale = value;
      if (o.scale != "tiny" && o.scale != "default") {
        usage("--scale must be tiny or default");
      }
    } else if (arg == "--git-rev") {
      o.git_rev = value;
    } else if (arg == "--trace-out") {
      o.trace_out = value;
    } else {
      usage(("unknown option " + arg).c_str());
    }
  }
  if (o.workload.empty() || !have_seed || o.seconds <= 0.0 || o.trace < 0) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  return o;
}

/// Threads busy during a parallel_for on a pool of width `width`: the
/// pool's workers plus the calling thread, which takes items too (width 1
/// runs inline, with no pool).
size_t busy_threads(size_t width) { return width > 1 ? width + 1 : 1; }

/// CPUs this process may run on (what nproc prints).
size_t host_cpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<size_t>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

double median(std::vector<double> v) {
  return v.empty() ? 0.0
                   : manrs::util::EmpiricalDistribution(std::move(v)).median();
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

std::string env_or(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? v : fallback;
}

/// Everything that shapes the numbers, as one JSON object.
std::string fingerprint(const Options& o, size_t nproc, size_t as_count,
                        int segments) {
  std::string j = "{";
  auto field = [&](const char* key, const std::string& value) {
    j += (j.size() > 1 ? ", " : "") + json_string(key) + ": " + value;
  };
  field("workload", json_string(o.workload));
  field("seed", std::to_string(o.seed));
  field("seconds", json_number(o.seconds));
  field("trace", std::to_string(o.trace));
  field("scale", json_string(o.scale));
  field("as_count", std::to_string(as_count));
  field("nproc", std::to_string(nproc));
  field("pool_threads", std::to_string(o.threads));
  field("busy_threads", std::to_string(busy_threads(o.threads)));
  std::string seeds;
  for (int k = 0; k < segments; ++k) {
    seeds += (k == 0 ? "" : ", ") +
             std::to_string(segment_seed(o.seed, k, segments));
  }
  field("segment_seeds", "[" + seeds + "]");
  field("build_type", json_string(PERFBENCH_BUILD_TYPE));
  field("compiler", json_string(PERFBENCH_COMPILER));
  field("flags", json_string(PERFBENCH_FLAGS));
  field("git_rev", json_string(o.git_rev));
  field("batch_width", std::to_string(manrs::sim::batch_width()));
  field("grain", json_string(manrs::util::grain_size() == 0
                                 ? "auto"
                                 : std::to_string(manrs::util::grain_size())));
  field("prop_cache_mb", json_string(env_or("MANRS_PROP_CACHE_MB", "2048")));
  return j + "}";
}

struct Tail {
  double value = 0.0;
  double percentile = 100.0;
  size_t beyond = 0;
};

/// The highest percentile with at least ten ops beyond it (the maximum when
/// there are fewer than eleven ops).
Tail tail_of(std::vector<double> samples) {
  const manrs::util::EmpiricalDistribution dist(std::move(samples));
  const std::vector<double>& v = dist.sorted_samples();
  const size_t n = v.size();
  if (n < 11) return Tail{v.empty() ? 0.0 : v.back(), 100.0, 0};
  return Tail{v[n - 11],
              100.0 * static_cast<double>(n - 10) / static_cast<double>(n),
              10};
}

/// Per-layer values: the median over traced ops of each op's span totals,
/// with the derived ratios computed per op first. Holds the metrics and the
/// internal counters their ratios are formed from.
std::map<std::string, double> per_layer(const Tracer& tracer,
                                        const std::string& workload) {
  std::map<int, std::map<std::string, double>> ops =
      per_op_totals(tracer.spans());
  const std::map<int, double> self = root_self_ms(tracer.spans());
  for (auto& [id, m] : ops) {
    auto has = [&m](const char* k) { return m.count(k) != 0; };
    if (has("simulator.cache_hits")) {
      const double lookups =
          m["simulator.cache_hits"] + m["simulator.cache_misses"];
      m["simulator.cache_lookups"] = lookups;
      if (lookups > 0) {
        m["simulator.cache_hit_ratio"] = m["simulator.cache_hits"] / lookups;
      }
    }
    if (has("simulator.arena_hops") && m["simulator.arena_hops"] > 0) {
      m["simulator.path_shared_ratio"] =
          m["simulator.arena_shared_hops"] / m["simulator.arena_hops"];
    }
    if (has("mrt.decode_ms") && m["mrt.decode_ms"] > 0) {
      m["mrt.decode_mb_per_s"] =
          m["mrt.dump_bytes"] / 1e6 / (m["mrt.decode_ms"] / 1e3);
    }
    if (has("mrt.fold_ms") && m["mrt.updates"] > 0) {
      m["mrt.fold_us_per_update"] = m["mrt.fold_ms"] * 1e3 / m["mrt.updates"];
    }
    if (workload == "snapshot" && self.count(id) != 0) {
      m["snapshot.unattributed_ms"] = self.at(id);
    }
  }
  std::map<std::string, std::vector<double>> samples;
  for (const auto& [id, m] : ops) {
    for (const auto& [name, value] : m) samples[name].push_back(value);
  }
  std::map<std::string, double> out;
  for (const auto& [name, values] : samples) out[name] = median(values);
  return out;
}

int run(const Options& opt_in) {
  Options opt = opt_in;
  const size_t nproc = host_cpus();
  if (opt.threads == 0) {
    opt.threads = 4;
    while (opt.threads > 1 && busy_threads(opt.threads) > nproc) --opt.threads;
  }
  if (busy_threads(opt.threads) > nproc) {
    std::fprintf(stderr,
                 "manrs_perfbench: refusing to time a %zu-thread pool on %zu "
                 "CPUs: with the calling thread that is %zu busy threads "
                 "(oversubscribed)\n",
                 opt.threads, nproc, busy_threads(opt.threads));
    return 2;
  }

  Context ctx;
  ctx.scenario = opt.scale == "tiny"
                     ? manrs::topogen::ScenarioConfig::tiny()
                     : manrs::topogen::ScenarioConfig::paper_default();
  ctx.threads = opt.threads;
  ctx.perturb = opt.perturb;

  std::unique_ptr<Workload> workload;
  if (opt.workload == "snapshot") {
    workload = make_snapshot(ctx);
  } else if (opt.workload == "series") {
    workload = make_series(ctx);
  } else if (opt.workload == "ingest") {
    workload = make_ingest(ctx);
  } else {
    usage("--workload must be snapshot, series or ingest");
  }
  const int segments = workload->segments();
  const std::string print =
      fingerprint(opt, nproc, ctx.scenario.total_as_count(), segments);
  std::printf("fingerprint %s\n", print.c_str());
  std::fflush(stdout);

  Tracer tracer(kProcessStart);

  // --- segments: set-up, then a share of the timed window (closed loop) ---
  std::vector<double> setup_s, op_ms, traced_ms, untraced_ms;
  std::vector<bool> op_ok;
  double timed_ms = 0.0;
  double setup_total_s = 0.0;
  int id = 0;
  for (int k = 0; k < segments; ++k) {
    const uint64_t seed = segment_seed(opt.seed, k, segments);
    const Clock::time_point t0 = k == 0 ? kProcessStart : Clock::now();
    tracer.set_active(opt.trace == 1);
    tracer.set_op(-1);
    manrs::util::set_thread_count(opt.threads);  // drops the running pool
    workload->set_up(seed, tracer);
    setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
    setup_total_s += setup_s.back();

    const double until_ms = opt.seconds * 1e3 * (k + 1) / segments;
    const auto first_op = static_cast<std::ptrdiff_t>(op_ms.size());
    const bool last = k == segments - 1;
    for (; (timed_ms < until_ms || (last && workload->needs_more())) &&
           !workload->exhausted();
         ++id) {
      const bool traced = opt.trace == 1 && id % 2 == 0;
      tracer.set_active(traced);
      tracer.set_op(id);
      const OpResult r = workload->op(id, tracer);
      op_ms.push_back(r.ms);
      (traced ? traced_ms : untraced_ms).push_back(r.ms);
      op_ok.push_back(r.ok);
      timed_ms += r.ms;
    }
    tracer.set_active(false);
    for (int bad : workload->end_segment()) {
      op_ok[static_cast<size_t>(bad)] = false;
    }
    const std::vector<double> segment_ms(op_ms.begin() + first_op, op_ms.end());
    std::printf("segment %d seed %llu: %zu ops, p50 %.3f ms; %s\n", k,
                static_cast<unsigned long long>(seed), segment_ms.size(),
                median(segment_ms), workload->summary().c_str());
  }
  const size_t attempted = op_ms.size();
  const size_t failed =
      static_cast<size_t>(std::count(op_ok.begin(), op_ok.end(), false));

  rusage usage_now{};
  getrusage(RUSAGE_SELF, &usage_now);
  const double peak_rss_mb = static_cast<double>(usage_now.ru_maxrss) / 1024.0;

  const double wall_s = ms_between(kProcessStart, Clock::now()) / 1e3;
  std::printf("run wall %.3f s: set-up %.3f s, timed ops %.3f s, checks and "
              "teardown %.3f s\n",
              wall_s, setup_total_s, timed_ms / 1e3,
              wall_s - setup_total_s - timed_ms / 1e3);
  std::printf("failed_op_ratio %zu/%zu ops (closed loop, 1 caller, %zu pool "
              "threads)\n",
              failed, attempted, opt.threads);

  std::map<std::string, double> metrics;
  if (opt.trace == 0) {
    const Tail tail = tail_of(op_ms);
    metrics["setup_s"] = median(setup_s);
    metrics["op_ms_p50"] = median(op_ms);
    metrics["op_ms_tail"] = tail.value;
    metrics["ops_per_s"] =
        timed_ms > 0 ? static_cast<double>(attempted) / (timed_ms / 1e3) : 0.0;
    metrics["peak_rss_mb"] = peak_rss_mb;
    std::string samples;
    for (double s : setup_s) samples += " " + json_number(s);
    std::printf("setup_s %.4f s (median of %zu segment set-ups:%s)\n",
                metrics["setup_s"], setup_s.size(), samples.c_str());
    std::printf("op_ms_p50 %.3f ms (n=%zu ops)\n", metrics["op_ms_p50"],
                attempted);
    std::printf("op_ms_tail %.3f ms at p%.1f (%zu ops beyond)\n", tail.value,
                tail.percentile, tail.beyond);
    std::printf("ops_per_s %.4f (%zu ops in %.3f s timed, %s scale, %zu "
                "ASes)\n",
                metrics["ops_per_s"], attempted, timed_ms / 1e3,
                opt.scale.c_str(), ctx.scenario.total_as_count());
    std::printf("peak_rss_mb %.1f MB (getrusage ru_maxrss)\n", peak_rss_mb);
  } else {
    const std::map<std::string, double> layer = per_layer(tracer, opt.workload);
    for (const MetricDef& m : kPerLayer) {
      const auto it = layer.find(m.name);
      metrics[m.name] = it == layer.end() ? 0.0 : it->second;
    }
    metrics["trace.overhead_ms"] = median(traced_ms) - median(untraced_ms);
    std::printf("trace: %zu traced ops (p50 %.3f ms), %zu untraced ops (p50 "
                "%.3f ms), overhead %.3f ms\n",
                traced_ms.size(), median(traced_ms), untraced_ms.size(),
                median(untraced_ms), metrics["trace.overhead_ms"]);
    for (const char* base : {"simulator.cache_lookups", "simulator.arena_hops",
                             "mrt.dump_bytes"}) {
      if (layer.count(base) != 0) {
        std::printf("base %s %.1f (median per traced op)\n", base,
                    layer.at(base));
      }
    }
    for (const MetricDef& m : kPerLayer) {
      std::printf("%-30s %14.4f %s\n", m.name, metrics[m.name], m.unit);
    }
    if (!opt.trace_out.empty()) {
      std::ofstream out(opt.trace_out);
      tracer.write_chrome_json(out, print);
      if (!out) {
        std::fprintf(stderr, "manrs_perfbench: cannot write %s\n",
                     opt.trace_out.c_str());
        return 1;
      }
      std::printf("trace written to %s (%zu spans; open in Perfetto or "
                  "chrome://tracing)\n",
                  opt.trace_out.c_str(), tracer.spans().size());
    }
  }

  std::string result = "{\"correct\": ";
  result += failed == 0 ? "true" : "false";
  result += ", \"attempted\": " + std::to_string(attempted);
  result += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const MetricDef& m) {
    result += (first ? "" : ", ") + json_string(m.name) +
              ": {\"value\": " + json_number(metrics[m.name]) +
              ", \"unit\": " + json_string(m.unit) + "}";
    first = false;
  };
  if (opt.trace == 0) {
    for (const MetricDef& m : kEndToEnd) emit(m);
  } else {
    for (const MetricDef& m : kPerLayer) emit(m);
  }
  result += "}}";
  std::printf("%s\n", result.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "manrs_perfbench: %s\n", e.what());
    return 1;
  }
}
