// netqre-perfbench — the monitor-path benchmark (see ../README.md).
//
//   netqre-perfbench --root DIR --workload NAME --seed N --seconds S
//                    --trace 0|1
//   netqre-perfbench --root DIR --workload NAME --seed N
//                    --write-capture FILE
//
// Builds the workload's capture from the seed under
// DIR/.bench_build/perfbench, runs passes of the monitor path for S seconds
// and prints, as the last line of stdout, one JSON object:
//   {"correct":...,"attempted":...,"failed":...,"metrics":{...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1; that run also writes the Chrome trace of its spans).
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "path.hpp"

namespace perfbench {
namespace {

const std::vector<Tenant> kBackboneTenants = {
    {"heavy_hitter.nqre", "hh"},
    {"super_spreader.nqre", "ss"},
    {"entropy.nqre", "src_pkts"},
    {"flow_size_dist.nqre", "flow_pkts"},
    {"traffic_change.nqre", "recent_src_bytes"},
    {"count_traffic.nqre", "total_bytes"},
    {"email_keywords.nqre", "keyword_pkts"},
    {"dns_tunnel.nqre", "dns_long_queries"},
};

// Every interpreted Table-1 tenant but usage_per_user (superlinear in
// stream length; see README), plus the two payload-atom compiled tenants.
const std::vector<Tenant> kAttackTenants = {
    {"completed_flows.nqre", "completed_flows"},
    {"syn_flood.nqre", "syn_flood"},
    {"slowloris.nqre", "avg_rate"},
    {"lifetime.nqre", "lifetime"},
    {"new_conns.nqre", "recent_new_conns"},
    {"dup_acks.nqre", "dup_acks"},
    {"voip_count.nqre", "voip_call_count"},
    {"dns_amplification.nqre", "dns_amp_alert"},
    {"email_keywords.nqre", "keyword_pkts"},
    {"dns_tunnel.nqre", "dns_long_queries"},
};

const std::vector<Tenant> kChurnTenants = {
    {"heavy_hitter.nqre", "hh"},
    {"super_spreader.nqre", "ss"},
    {"entropy.nqre", "src_pkts"},
    {"flow_size_dist.nqre", "flow_pkts"},
};

constexpr const char* kAttackRules = R"(
alarm: dns_tunnel_sources
on: dns_long_queries
key: *
lookup: max -60s
warn: > 20
crit: > 50
info: sources asking for many long DNS names

alarm: new_connections
on: recent_new_conns
lookup: max -60s
warn: > 500
crit: > 2000
hysteresis: 50
info: connections opened by a bare SYN
)";

constexpr const char* kChurnRules = R"(
alarm: churn_hh
on: hh
key: *
lookup: max -60s
warn: > 200000
crit: > 1000000
hysteresis: 10000

alarm: churn_ss
on: ss
key: *
lookup: max -60s
warn: > 1
crit: > 2

alarm: churn_src_pkts
on: src_pkts
key: *
lookup: avg -60s
warn: > 100
crit: > 400
hysteresis: 10

alarm: churn_flow_pkts
on: flow_pkts
key: *
lookup: delta -60s
warn: > 50
crit: > 200
hysteresis: 5
)";

std::vector<Workload> workloads() {
  const int cores = static_cast<int>(std::thread::hardware_concurrency());
  std::vector<Workload> out;

  Workload bb;
  bb.name = "backbone-1t";
  bb.input = Workload::Input::BackboneFull;
  bb.shape = {200'000, 5'000, true};
  bb.tenants = kBackboneTenants;
  bb.round_every_s = 0.05;
  bb.store_keys = 16384;  // above every tenant's key count
  out.push_back(bb);

  Workload sharded = bb;
  sharded.name = "backbone-sharded";
  sharded.workers = std::max(1, cores - 1);  // one core for the dispatcher
  out.push_back(sharded);

  Workload at;
  at.name = "attacks-1t";
  at.input = Workload::Input::Attacks;
  at.tenants = kAttackTenants;
  at.round_every_s = 3.0;
  at.store_keys = 16384;
  at.health_rules = kAttackRules;
  out.push_back(at);

  Workload churn;
  churn.name = "store-churn";
  churn.input = Workload::Input::BackboneHeaders;
  churn.shape = {100'000, 3'000, false};
  churn.tenants = kChurnTenants;
  churn.round_every_s = 0.008;
  churn.store_keys = 1024;  // netqre-monitor's default --store-keys
  churn.health_rules = kChurnRules;
  out.push_back(churn);
  return out;
}

// Tenants whose standalone step cost the traced run reports, on every
// workload's capture (the union of the rosters).
std::vector<Tenant> all_tenants() {
  std::vector<Tenant> out = kBackboneTenants;
  for (const Tenant& t : kAttackTenants) {
    const bool seen = std::any_of(out.begin(), out.end(), [&](const Tenant& o) {
      return o.main == t.main;
    });
    if (!seen) out.push_back(t);
  }
  return out;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// The tail of `v`: the highest of p90 and p75 with at least ten values
// beyond it (nearest rank), or the median below 40 values, where no
// percentile would be a tail.
double tail(std::vector<double> v, const char* what) {
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  for (const double q : {0.9, 0.75}) {
    if (n < 40 || n * (1 - q) < 10) continue;
    const auto at = [&v, n](double x) {
      return v[static_cast<size_t>(std::ceil(x * n)) - 1];
    };
    std::fprintf(stderr,
                 "perfbench: %s: %zu operations, best of each over the "
                 "passes; tail = p%g; p10 %.4g p50 %.4g p90 %.4g max %.4g\n",
                 what, v.size(), q * 100, at(0.1), at(0.5), at(0.9),
                 v.back());
    return at(q);
  }
  std::fprintf(stderr, "perfbench: %s: %zu operations, tail = median\n",
               what, v.size());
  return median(v);
}

// Entry i of the result is operation i's best (lowest) time over the
// passes.  Every pass replays the same capture, so operation i is the same
// batch, round or read each time; its best time is its cost with the least
// interference from the rest of the host.
std::vector<double> best_of(const std::vector<PassStats>& passes,
                            std::vector<double> PassStats::*times) {
  std::vector<double> best = passes.front().*times;
  for (const PassStats& p : passes) {
    const std::vector<double>& t = p.*times;
    if (t.size() != best.size()) {
      throw std::logic_error("passes made different numbers of operations");
    }
    for (size_t i = 0; i < t.size(); ++i) best[i] = std::min(best[i], t[i]);
  }
  return best;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, uint64_t attempted, uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[40];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::cout << out << std::endl;
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "netqre-perfbench: " << why
            << "\nusage: netqre-perfbench --root DIR --workload NAME "
               "--seed N (--seconds S --trace 0|1 | --write-capture FILE)\n";
  std::exit(2);
}

int run(int argc, char** argv) {
  std::string root, name, capture_out;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    if (a == "--root") {
      root = v;
    } else if (a == "--workload") {
      name = v;
    } else if (a == "--seed") {
      seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      seconds = std::atof(v.c_str());
    } else if (a == "--trace") {
      trace = v == "1" ? 1 : v == "0" ? 0 : -1;
    } else if (a == "--write-capture") {
      capture_out = v;
    } else {
      usage("unknown argument " + a);
    }
  }
  if (root.empty() || name.empty() ||
      (capture_out.empty() && (seconds <= 0 || trace < 0))) {
    usage("--root, --workload, --seconds and --trace are required");
  }
  const auto all = workloads();
  const auto wit = std::find_if(all.begin(), all.end(),
                                [&](const Workload& w) { return w.name == name; });
  if (wit == all.end()) usage("unknown workload " + name);
  const Workload& w = *wit;

  const std::string dir = root + "/.bench_build/perfbench/run-" +
                          std::to_string(::getpid());
  std::filesystem::create_directories(dir);
  struct Cleanup {
    std::string dir;
    ~Cleanup() {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  } cleanup{dir};

  const int64_t t_prep = now_ns();
  const Inputs in = prepare(w, seed, dir);
  std::fprintf(stderr,
               "perfbench: %s seed %llu: %llu packets, capture and oracles "
               "in %.2f s\n",
               w.name.c_str(), static_cast<unsigned long long>(seed),
               static_cast<unsigned long long>(in.packets),
               static_cast<double>(now_ns() - t_prep) / 1e9);

  if (!capture_out.empty()) {
    std::filesystem::copy_file(
        in.pcap, capture_out,
        std::filesystem::copy_options::overwrite_existing);
    std::fprintf(stderr, "perfbench: capture written to %s\n",
                 capture_out.c_str());
    return 0;
  }

  Tracer tracer;
  std::map<std::string, double> tenant_ns;
  if (trace) tenant_ns = tenant_costs(in, all_tenants(), 32768);

  // The traced run alternates traced and untraced passes; its untraced
  // passes are the base of the tracing overhead.
  Samples samples;
  std::vector<PassStats> passes, untraced;
  std::string reference_log;
  uint64_t attempted = 0, failed = 0;
  bool correct = true;
  const int64_t start = now_ns();
  for (size_t i = 0;
       passes.size() < 2 || (trace && untraced.size() < 2) ||
       static_cast<double>(now_ns() - start) / 1e9 < seconds;
       ++i) {
    const bool traced_pass = trace && i % 2 == 0;
    tracer.set_enabled(traced_pass);
    PassStats st =
        run_pass(w, in, tracer, samples, i ? &reference_log : nullptr);
    double batches_ms = 0, rounds_ms = 0;
    for (const double us : st.batch_us) batches_ms += us / 1e3;
    for (const double ms : st.round_ms) rounds_ms += ms;
    std::fprintf(stderr,
                 "perfbench: pass %zu%s: setup %.2f ms, replay %.1f ms "
                 "(batches %.1f, rounds %.1f), %.0f pps, cpu %.0f ns/pkt\n",
                 i, traced_pass ? " (traced)" : "", st.setup_s * 1e3,
                 st.replay_s * 1e3, batches_ms, rounds_ms,
                 static_cast<double>(st.packets) / st.replay_s,
                 st.cpu_s * 1e9 / static_cast<double>(st.packets));
    if (i == 0) reference_log = st.health_log;
    attempted += st.attempted;
    failed += st.failed;
    if (st.packets != in.packets) correct = false;
    if (i == 0) {
      for (const auto& f : st.failures) {
        std::fprintf(stderr, "perfbench: failed: %s\n", f.c_str());
      }
    }
    (trace && !traced_pass ? untraced : passes).push_back(std::move(st));
  }
  tracer.set_enabled(false);
  std::fprintf(stderr,
               "perfbench: %zu passes, %llu operations, %llu failed; "
               "health log %zu bytes, hash %016llx\n",
               passes.size() + untraced.size(),
               static_cast<unsigned long long>(attempted),
               static_cast<unsigned long long>(failed), reference_log.size(),
               static_cast<unsigned long long>(
                   std::hash<std::string>{}(reference_log)));

  const auto per_pass = [&passes](auto fn) {
    std::vector<double> v;
    for (const PassStats& p : passes) v.push_back(fn(p));
    return median(v);
  };
  // On a VM that shares its host, for seconds at a time a pass can take
  // 1.3 to 1.9 times as long as the fastest, CPU time included.  So the
  // timings are taken over each operation's best time (best_of), and the
  // CPU cost is that of the best pass (see README).
  const auto best_pass = [](const std::vector<PassStats>& ps, auto fn) {
    double best = fn(ps.front());
    for (const PassStats& p : ps) best = std::min(best, fn(p));
    return best;
  };
  // The replay, as the sum of its stretches' best times.
  const auto pps_of = [](const std::vector<PassStats>& ps) {
    double s = 0;
    for (const double t : best_of(ps, &PassStats::stretch_s)) s += t;
    return static_cast<double>(ps.front().packets) / s;
  };
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;

  std::vector<Metric> m;
  if (!trace) {
    const std::vector<double> batch_us =
        best_of(passes, &PassStats::batch_us);
    const std::vector<double> round_ms =
        best_of(passes, &PassStats::round_ms);
    m.push_back({"pps", pps_of(passes), "packets/s"});
    m.push_back({"batch_us_p50", median(batch_us), "us"});
    m.push_back({"batch_us_tail", tail(batch_us, "batch_us"), "us"});
    m.push_back({"round_ms_p50", median(round_ms), "ms"});
    m.push_back({"cpu_ns_per_pkt", best_pass(passes, [](const PassStats& p) {
                   return p.cpu_s * 1e9 / static_cast<double>(p.packets);
                 }),
                 "ns"});
    m.push_back({"setup_s", per_pass([](const PassStats& p) {
                   return p.setup_s;
                 }),
                 "s"});
    m.push_back({"state_mb", per_pass([](const PassStats& p) {
                   return (p.state_bytes + p.resident_bytes) / 1e6;
                 }),
                 "MB"});
    m.push_back({"peak_rss_mb", peak_rss_mb, "MB"});
  } else {
    double packets = 0, fill = 0, on_batch = 0, feed = 0;
    for (const PassStats& p : passes) {
      packets += static_cast<double>(p.packets);
      fill += p.fill_ns;
      on_batch += p.on_batch_ns;
      feed += p.feed_ns;
    }
    const auto pp = [&per_pass](double PassStats::*field, double scale) {
      return per_pass([=](const PassStats& p) { return p.*field * scale; });
    };
    m.push_back({"net.fill_ns_per_pkt", fill / packets, "ns"});
    m.push_back({"lang.compile_ms", pp(&PassStats::compile_ns, 1e-6), "ms"});
    m.push_back({"core.load_ms", pp(&PassStats::load_ns, 1e-6), "ms"});
    m.push_back({"core.on_batch_ns_per_pkt", on_batch / packets, "ns"});
    for (const auto& [tenant, ns] : tenant_ns) {
      m.push_back({"core.tenant_ns_per_pkt." + tenant, ns, "ns"});
    }
    m.push_back({"core.atom_refs_per_pool_atom", pp(&PassStats::atom_ratio, 1),
                 "ratio"});
    m.push_back({"core.feed_ns_per_pkt", feed / packets, "ns"});
    m.push_back({"core.finish_ms", pp(&PassStats::finish_ns, 1e-6), "ms"});
    m.push_back({"core.shard_skew", pp(&PassStats::shard_skew, 1), "ratio"});
    m.push_back({"core.dispatch_busy_share", per_pass([](const PassStats& p) {
                   return (p.fill_ns + p.on_batch_ns + p.feed_ns) /
                          (p.replay_s * 1e9);
                 }),
                 "ratio"});
    m.push_back({"core.snapshot_ms", median(samples.snapshot_ms), "ms"});
    m.push_back({"core.snapshot_rows", median(samples.rows), "count"});
    m.push_back({"store.ingest_ms", median(samples.ingest_ms), "ms"});
    m.push_back({"store.evicted_keys", pp(&PassStats::evicted_keys, 1),
                 "count"});
    std::vector<double> read_ms;
    for (const PassStats& p : passes) {
      read_ms.insert(read_ms.end(), p.read_ms.begin(), p.read_ms.end());
    }
    m.push_back({"obs.read_ms_p50", median(read_ms), "ms"});
    m.push_back({"store.query_ms", median(samples.query_ms), "ms"});
    m.push_back({"obs.health_eval_ms", median(samples.health_ms), "ms"});
    m.push_back({"obs.health_transitions",
                 pp(&PassStats::health_transitions, 1), "count"});
    m.push_back({"store.stream_push_us", median(samples.push_us), "us"});
    m.push_back({"store.stream_apply_ms", pp(&PassStats::apply_ns, 1e-6),
                 "ms"});
    m.push_back({"store.stream_rounds_sent", pp(&PassStats::rounds_sent, 1),
                 "count"});
    m.push_back({"core.state_mb", pp(&PassStats::state_bytes, 1e-6), "MB"});
    m.push_back({"store.resident_mb", pp(&PassStats::resident_bytes, 1e-6),
                 "MB"});
    m.push_back({"obs.trace_overhead_pct",
                 (pps_of(untraced) / pps_of(passes) - 1) * 100, "%"});
    // Self time per layer and traced pass: span time minus child spans.
    const auto self = tracer.self_ns_by_layer();
    for (const char* layer :
         {"bench", "core", "lang", "net", "obs", "store"}) {
      const auto it = self.find(layer);
      const double ns = it == self.end() ? 0 : it->second;
      m.push_back({std::string(layer) + ".self_ms",
                   ns / 1e6 / static_cast<double>(passes.size()), "ms"});
    }
    const std::string trace_path = root + "/.bench_build/perfbench/trace-" +
                                   w.name + "-" + std::to_string(seed) +
                                   ".json";
    tracer.write_chrome(trace_path);
    std::fprintf(stderr, "perfbench: spans written to %s\n",
                 trace_path.c_str());
  }
  print_result(correct, attempted, failed, m);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "netqre-perfbench: " << e.what() << "\n";
    return 1;
  }
}
