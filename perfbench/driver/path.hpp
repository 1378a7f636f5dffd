// One pass of the netqre-monitor engine loop, driven through the public
// calls in the order run_engine makes them:
//
//   MappedPcapReader::fill -> QuerySet::on_batch | ParallelQuerySet::feed
//   -> snapshot_all | snapshot_all_async -> SeriesStore::ingest
//   -> HealthEngine::evaluate -> StreamClient::push -> in-process parent
//
// closed-loop at full speed (like --pps 0 --once), with sampling rounds on
// trace time so every pass does the same work.  A pass sets the whole
// path up, replays the capture once, then checks the results.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "capture.hpp"
#include "oracle.hpp"
#include "spans.hpp"
#include "store/series_store.hpp"

namespace perfbench {

struct Tenant {
  std::string file;  // shipped queries/ file
  std::string main;  // entry sfun; also the tenant and store context name
};

struct Workload {
  std::string name;
  enum class Input { BackboneFull, BackboneHeaders, Attacks } input;
  BackboneShape shape;  // backbone inputs only
  std::vector<Tenant> tenants;
  int workers = 0;             // 0 = one QuerySet on the driver thread
  double round_every_s = 1.0;  // sampling cadence, trace seconds
  uint32_t store_keys = 1024;  // per-context key budget
  std::string health_rules;    // .health rules added to the built-ins
};

// One range read: GET `target` on the edge server, or the same query
// straight from its store.
struct RangeRead {
  std::string context;
  netqre::store::RangeQuery query;
  std::string target;
};

// Everything made from the seed before the first pass.
struct Inputs {
  std::string pcap;
  uint64_t packets = 0;
  std::map<std::string, std::string> sources;  // query file -> text
  std::unique_ptr<BackboneOracle> backbone;
  std::unique_ptr<AttackMix> mix;
  std::unique_ptr<AttackOracle> attacks;
  // Final rows of every tenant from one single-threaded QuerySet replay:
  // the row-for-row reference of the sharded workload, and where the
  // range reads' dimensions come from.
  std::map<std::string, Rows> single;
  std::vector<RangeRead> reads;
};

Inputs prepare(const Workload& w, uint64_t seed, const std::string& dir);

// Per-layer timings of the traced passes, pooled over passes.
struct Samples {
  std::vector<double> snapshot_ms, ingest_ms, health_ms, push_us, query_ms;
  std::vector<double> rows;  // snapshot rows per round
};

struct PassStats {
  double setup_s = 0;
  double load_ns = 0;  // the set-up's apps::load_query calls
  double replay_s = 0;  // first fill to the last round ingested
  double cpu_s = 0;     // process CPU time over the same interval
  uint64_t packets = 0;
  // One entry per operation, in replay order.  Every pass replays the same
  // capture, so entry i is the same batch, round or read in every pass.
  // The reader thread fills read_ms.
  std::vector<double> batch_us;  // fill + step (or feed) of one batch
  std::vector<double> round_ms;  // round request -> pushes enqueued
  std::vector<double> read_ms;   // range read, from its release
  // The replay cut at the end of each round: the batches since the last
  // round, the stream flow-control wait, finish() before the final round,
  // and the round itself.
  std::vector<double> stretch_s;
  double finish_ns = 0;  // ParallelQuerySet::finish
  double state_bytes = 0;     // sum of QueryStatus::state_bytes
  double resident_bytes = 0;  // edge SeriesStore::resident_bytes
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;
  std::string health_log;  // store-rule transitions, in commit order
  // Traced passes only (ns unless noted).
  double compile_ns = 0, fill_ns = 0, on_batch_ns = 0, feed_ns = 0,
         apply_ns = 0;
  double shard_skew = 1, atom_ratio = 0, evicted_keys = 0,
         health_transitions = 0, rounds_sent = 0;
};

// Runs one pass.  `reference_log` is the first pass's health log (empty
// for the first pass itself).
PassStats run_pass(const Workload& w, const Inputs& in, Tracer& tracer,
                   Samples& samples, const std::string* reference_log);

// ns/packet of each tenant's QuerySet::on_batch, each tenant alone in its
// own QuerySet over the first `max_packets` packets of the capture.
std::map<std::string, double> tenant_costs(const Inputs& in,
                                           const std::vector<Tenant>& tenants,
                                           uint64_t max_packets);

}  // namespace perfbench
