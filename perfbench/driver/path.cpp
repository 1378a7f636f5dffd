#include "path.hpp"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <future>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include <arpa/inet.h>
#include <malloc.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <time.h>
#include <unistd.h>

#include "apps/queryset_admin.hpp"
#include "core/queryset.hpp"
#include "lang/analysis.hpp"
#include "lang/certify.hpp"
#include "lang/diag.hpp"
#include "net/pcap.hpp"
#include "obs/health.hpp"
#include "obs/http_export.hpp"
#include "store/series_store.hpp"
#include "store/stream.hpp"

#ifndef PERFBENCH_QUERIES_DIR
#define PERFBENCH_QUERIES_DIR "queries"
#endif

namespace perfbench {

using namespace netqre;
using Round = std::vector<std::pair<std::string, std::vector<core::ResultSample>>>;

namespace {

constexpr size_t kBatch = 1024;  // the daemon's kDefaultBatch
// Round bodies allowed in the stream client's queue (of 64) before the
// next round waits: a drop is a failed operation, never a timing accident.
constexpr uint64_t kMaxInFlight = 32;

std::string query_source(const std::string& file) {
  const std::string path = std::string(PERFBENCH_QUERIES_DIR) + "/" + file;
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open query file " + path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

double cpu_now_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

uint64_t trace_ns(double ts) { return static_cast<uint64_t>(std::llround(ts * 1e9)); }

std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string url_encode(std::string_view s) {
  static constexpr char kHex[] = "0123456789ABCDEF";
  std::string out;
  for (const char c : s) {
    const auto u = static_cast<unsigned char>(c);
    if (std::isalnum(u) || c == '-' || c == '_' || c == '.') {
      out += c;
    } else {
      out += '%';
      out += kHex[u >> 4];
      out += kHex[u & 15];
    }
  }
  return out;
}

// ---- loopback HTTP client (the server closes after each response) ------

struct HttpReply {
  int status = 0;  // 0 = connect or IO failure
  std::string body;
};

HttpReply http_get(uint16_t port, const std::string& target) {
  HttpReply reply;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return reply;
  timeval tv{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  std::string raw;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0) {
    const std::string req = "GET " + target +
                            " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                            "Connection: close\r\n\r\n";
    if (::send(fd, req.data(), req.size(), MSG_NOSIGNAL) ==
        static_cast<ssize_t>(req.size())) {
      char buf[65536];
      for (;;) {
        const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
        if (n <= 0) break;
        raw.append(buf, static_cast<size_t>(n));
      }
    }
  }
  ::close(fd);
  const size_t head_end = raw.find("\r\n\r\n");
  if (raw.rfind("HTTP/1.1 ", 0) != 0 || head_end == std::string::npos) {
    return reply;
  }
  reply.status = std::atoi(raw.c_str() + 9);
  reply.body = raw.substr(head_end + 4);
  return reply;
}

// ---- minimal JSON well-formedness check -----------------------------------

struct JsonCheck {
  std::string_view s;
  size_t i = 0;

  void ws() {
    while (i < s.size() && (s[i] == ' ' || s[i] == '\n' || s[i] == '\r' ||
                            s[i] == '\t')) {
      ++i;
    }
  }
  bool lit(std::string_view w) {
    if (s.substr(i, w.size()) != w) return false;
    i += w.size();
    return true;
  }
  bool str() {
    if (i >= s.size() || s[i] != '"') return false;
    for (++i; i < s.size(); ++i) {
      if (s[i] == '\\') {
        ++i;
      } else if (s[i] == '"') {
        ++i;
        return true;
      } else if (static_cast<unsigned char>(s[i]) < 0x20) {
        return false;
      }
    }
    return false;
  }
  bool number() {
    const size_t start = i;
    if (i < s.size() && s[i] == '-') ++i;
    while (i < s.size() && (std::isdigit(static_cast<unsigned char>(s[i])) ||
                            s[i] == '.' || s[i] == 'e' || s[i] == 'E' ||
                            s[i] == '+' || s[i] == '-')) {
      ++i;
    }
    return i > start && std::isdigit(static_cast<unsigned char>(s[i - 1]));
  }
  bool value(int depth) {
    if (depth > 64) return false;
    ws();
    if (i >= s.size()) return false;
    const char c = s[i];
    if (c == '{' || c == '[') {
      const char close = c == '{' ? '}' : ']';
      ++i;
      ws();
      if (i < s.size() && s[i] == close) {
        ++i;
        return true;
      }
      for (;;) {
        if (c == '{') {
          ws();
          if (!str()) return false;
          ws();
          if (i >= s.size() || s[i++] != ':') return false;
        }
        if (!value(depth + 1)) return false;
        ws();
        if (i >= s.size()) return false;
        if (s[i] == close) {
          ++i;
          return true;
        }
        if (s[i++] != ',') return false;
      }
    }
    if (c == '"') return str();
    if (c == 't') return lit("true");
    if (c == 'f') return lit("false");
    if (c == 'n') return lit("null");
    return number();
  }
};

bool valid_json(std::string_view body) {
  JsonCheck j{body};
  if (!j.value(0)) return false;
  j.ws();
  return j.i == body.size();
}

Rows rows_of(const std::vector<core::ResultSample>& samples) {
  Rows out;
  for (const auto& s : samples) out[s.key] = s.value;
  return out;
}

std::map<std::string, Rows> rows_by_query(const Round& round) {
  std::map<std::string, Rows> out;
  for (const auto& [q, samples] : round) out[q] = rows_of(samples);
  return out;
}

void load_or_throw(apps::QuerySetRuntime& rt, const Tenant& t,
                   const std::string& text) {
  const apps::LoadOutcome out =
      apps::load_query(rt, t.main, t.file, t.main, text, 0);
  if (out.status != 200) {
    throw std::runtime_error("loading " + t.file + ":" + t.main + ": " +
                             out.error);
  }
}

// Replays the capture through `set`; returns on_batch ns over the first
// `max_packets` packets.
int64_t replay(const std::string& pcap, core::QuerySet& set,
               uint64_t max_packets) {
  net::MappedPcapReader reader(pcap);
  net::PacketBatch batch(kBatch);
  uint64_t done = 0;
  int64_t step_ns = 0;
  while (done < max_packets && reader.fill(batch, kBatch) > 0) {
    const int64_t t0 = now_ns();
    set.on_batch(batch.packets());
    step_ns += now_ns() - t0;
    done += batch.size();
  }
  return step_ns;
}

// The stored tier points of one key, as (min, max, sum, count) tuples.
using Agg = std::tuple<double, double, double, uint32_t>;
Agg agg_of(const store::TierPoint& p) {
  return {p.min, p.max, p.sum, p.count};
}

}  // namespace

// ----------------------------------------------------------------- prepare

Inputs prepare(const Workload& w, uint64_t seed, const std::string& dir) {
  Inputs in;
  in.pcap = dir + "/" + w.name + "-" + std::to_string(seed) + ".pcap";
  if (w.input == Workload::Input::Attacks) {
    in.mix = std::make_unique<AttackMix>(make_attack_mix(seed));
    write_packets(in.pcap, in.mix->packets);
    in.packets = in.mix->packets.size();
    in.attacks = std::make_unique<AttackOracle>(*in.mix);
  } else {
    BackboneShape shape = w.shape;
    shape.full_frames = w.input == Workload::Input::BackboneFull;
    in.backbone = std::make_unique<BackboneOracle>();
    write_backbone(in.pcap, shape, seed,
                   [&in](const net::Packet& p, const PayloadFacts& f) {
                     in.backbone->add(p, f);
                   });
    in.packets = shape.packets;
  }

  for (const Tenant& t : w.tenants) in.sources[t.file] = query_source(t.file);
  core::QuerySet set;
  apps::QuerySetRuntime rt;
  rt.set = &set;
  for (const Tenant& t : w.tenants) load_or_throw(rt, t, in.sources[t.file]);
  replay(in.pcap, set, UINT64_MAX);
  Round round;
  set.snapshot_all(round);
  in.single = rows_by_query(round);

  // Range reads select the eight largest results of a context by name.
  // The dimensions parameter is comma-separated, so contexts whose keys
  // hold a comma (the (srcip, dstip) tenants) cannot be read this way.
  for (const Tenant& t : w.tenants) {
    const Rows& rows = in.single[t.main];
    if (rows.empty()) continue;
    bool comma = false;
    std::vector<std::pair<double, std::string>> top;
    for (const auto& [k, v] : rows) {
      comma |= k.find(',') != std::string::npos;
      top.emplace_back(-v, k);
    }
    if (comma) continue;
    std::sort(top.begin(), top.end());
    top.resize(std::min<size_t>(top.size(), 8));
    RangeRead read;
    read.context = t.main;
    std::string dims;
    for (const auto& [v, k] : top) {
      read.query.dimensions.push_back(k);
      dims += (dims.empty() ? "" : ",") + k;
    }
    read.target = "/api/v1/data?context=" + url_encode(t.main) + "&after=" +
                  std::to_string(read.query.after_s) + "&before=" +
                  std::to_string(read.query.before_s) +
                  "&dimensions=" + url_encode(dims);
    in.reads.push_back(std::move(read));
  }
  if (in.reads.empty()) throw std::runtime_error("no readable context");
  return in;
}

// -------------------------------------------------------------------- pass

PassStats run_pass(const Workload& w, const Inputs& in, Tracer& tracer,
                   Samples& smp, const std::string* reference_log) {
  PassStats st;
  const bool traced = tracer.enabled();
  const auto fail = [&st](std::string why, uint64_t count = 1) {
    st.failed += count;
    st.failures.push_back(std::move(why));
  };
  const Tracer::Scope pass_span = tracer.span("bench.pass");

  store::StoreConfig scfg;
  scfg.max_keys = w.store_keys;
  const uint64_t every_ns = trace_ns(w.round_every_s);
  scfg.update_every_ns = every_ns;

  // Alert lines the parent applied (its push handler's thread), declared
  // first so it outlives the server.
  std::atomic<uint64_t> alerts_received{0};
  std::unique_ptr<core::QuerySet> set;
  std::unique_ptr<core::ParallelQuerySet> par;
  std::unique_ptr<store::SeriesStore> edge;
  std::unique_ptr<store::SeriesStore> parent_store;
  std::unique_ptr<apps::QuerySetRuntime> rt;
  std::unique_ptr<health::HealthEngine> healthd;
  std::unique_ptr<health::FleetAlertView> fleet;
  std::unique_ptr<obs::HttpServer> parent;
  std::unique_ptr<obs::HttpServer> edge_srv;
  std::unique_ptr<store::StreamClient> client;
  std::unique_ptr<net::MappedPcapReader> reader;
  std::set<std::string> store_rules;
  uint64_t alert_pushes = 0;  // transition hook runs on this thread

  // Untimed: hand the heap earlier passes freed back to the OS, so that
  // every pass sets up and replays like one `netqre-monitor --once` run in
  // a fresh process.  Without it, a ParallelQuerySet started after an
  // earlier one's teardown stalled the driver thread ~10 ms in one set-up
  // of two (see README).
  malloc_trim(0);

  // ---- set-up ----------------------------------------------------------
  const int64_t setup_start = now_ns();
  {
    const Tracer::Scope sp = tracer.span("bench.setup");
    if (w.workers > 0) {
      const Tracer::Scope s = tracer.span("core.workers_start");
      par = std::make_unique<core::ParallelQuerySet>(w.workers);
    } else {
      set = std::make_unique<core::QuerySet>();
    }
    {
      const Tracer::Scope s = tracer.span("store.create");
      edge = std::make_unique<store::SeriesStore>(scfg);
    }
    rt = std::make_unique<apps::QuerySetRuntime>();
    rt->set = set.get();
    rt->parallel = par.get();
    rt->store = edge.get();
    const int64_t t0 = now_ns();
    {
      const Tracer::Scope s = tracer.span("core.load");
      for (const Tenant& t : w.tenants) {
        load_or_throw(*rt, t, in.sources.at(t.file));
      }
    }
    st.load_ns = static_cast<double>(now_ns() - t0);

    {
      const Tracer::Scope s = tracer.span("obs.health_start");
      healthd = std::make_unique<health::HealthEngine>(edge.get(), nullptr);
      healthd->add_rules(health::builtin_rules());
      if (!w.health_rules.empty()) {
        health::ParseResult parsed =
            health::parse_health_rules(w.health_rules);
        if (!parsed.error.empty()) {
          throw std::runtime_error("health rules: " + parsed.error);
        }
        for (const auto& r : parsed.rules) store_rules.insert(r.name);
        healthd->add_rules(std::move(parsed.rules));
      }
      fleet = std::make_unique<health::FleetAlertView>();
    }
    {
      const Tracer::Scope s = tracer.span("store.create");
      parent_store = std::make_unique<store::SeriesStore>(scfg);
    }
    parent = std::make_unique<obs::HttpServer>();
    edge_srv = std::make_unique<obs::HttpServer>();
    {
      const Tracer::Scope s = tracer.span("obs.servers_start");
      store::register_store_endpoints(
          *parent, *parent_store,
          [f = fleet.get(), &alerts_received](std::string_view source,
                                              const store::AlertLine& line) {
            f->ingest(source, line);
            ++alerts_received;
          });
      parent->start(0);
      store::register_store_endpoints(*edge_srv, *edge);
      edge_srv->start(0);
    }
    {
      const Tracer::Scope s = tracer.span("store.stream_start");
      store::StreamClient::Config cc;
      cc.port = parent->port();
      cc.source = "edge";
      client = std::make_unique<store::StreamClient>(cc);
    }
    healthd->set_transition_hook([&](const health::AlertTransition& tr) {
      store::AlertLine line;
      line.t_ns = tr.t_ns;
      line.seq = tr.seq;
      line.rule = tr.rule;
      line.from = health::alert_status_name(tr.from);
      line.to = health::alert_status_name(tr.to);
      line.value = tr.value;
      line.key = tr.key;
      client->push_alert(line);
      ++alert_pushes;
      // Store rules only: metric rules read wall-clock-driven registry
      // series (queue depths, the parent's eviction counters).
      if (store_rules.count(tr.rule)) {
        st.health_log += tr.rule + "[" + tr.key + "] " + line.from + "->" +
                         line.to + " value=" + fmt(tr.value) + "\n";
      }
    });
    {
      const Tracer::Scope s = tracer.span("net.open");
      reader = std::make_unique<net::MappedPcapReader>(in.pcap);
    }
  }
  st.setup_s = static_cast<double>(now_ns() - setup_start) / 1e9;

  // ---- range reads --------------------------------------------------------
  // One read per round, released by the driver thread as the round's
  // ingest begins.  The reader thread sends it and times it from its
  // release, so a read lands beside the same ingest in every pass.
  std::mutex read_mu;
  std::condition_variable_any read_cv;
  std::vector<int64_t> read_released;
  const auto release_read = [&] {
    {
      const std::lock_guard<std::mutex> lock(read_mu);
      read_released.push_back(now_ns());
    }
    read_cv.notify_one();
  };
  uint64_t read_failures = 0;
  // Stopping it (or leaving the scope) lets it finish the released reads.
  std::jthread range_reader([&](std::stop_token stop) {
    for (size_t k = 0;; ++k) {
      int64_t released = 0;
      {
        std::unique_lock<std::mutex> lock(read_mu);
        if (!read_cv.wait(lock, stop,
                          [&] { return read_released.size() > k; })) {
          break;
        }
        released = read_released[k];
      }
      const RangeRead& read = in.reads[k % in.reads.size()];
      HttpReply reply;
      {
        const Tracer::Scope s = tracer.span("obs.http_get");
        reply = http_get(edge_srv->port(), read.target);
      }
      st.read_ms.push_back(static_cast<double>(now_ns() - released) / 1e6);
      if (reply.status != 200 || !valid_json(reply.body)) ++read_failures;
    }
  });

  // ---- sampling rounds ---------------------------------------------------
  uint64_t pushed = 0;  // round bodies handed to the stream client
  int64_t stretch_start = 0;  // replay start, then the end of each round
  size_t n_rounds = 0;
  Round final_round;
  uint64_t final_stamp = 0;
  const auto do_round = [&](uint64_t t_ns) {
    {
      const Tracer::Scope s = tracer.span("store.stream_wait");
      while (pushed + alert_pushes - client->rounds_sent() -
                 client->rounds_dropped() - client->push_failures() >
             kMaxInFlight) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    }
    const int64_t t0 = now_ns();
    Round round;
    {
      const Tracer::Scope s = tracer.span("core.snapshot");
      if (set) {
        set->snapshot_all(round);
      } else {
        std::promise<Round> done;
        std::future<Round> merged = done.get_future();
        par->snapshot_all_async(
            [&done](Round r) { done.set_value(std::move(r)); });
        round = merged.get();
      }
    }
    const int64_t t1 = now_ns();
    release_read();
    double rows = 0, ingest_ns = 0;
    for (const auto& [query, results] : round) {
      std::vector<store::Sample> samples;
      samples.reserve(results.size());
      for (const auto& r : results) samples.push_back({r.key, r.value});
      rows += static_cast<double>(samples.size());
      const int64_t a = now_ns();
      {
        const Tracer::Scope s = tracer.span("store.ingest");
        edge->ingest(edge->context(query), t_ns, samples);
      }
      const int64_t b = now_ns();
      {
        const Tracer::Scope s = tracer.span("store.stream_push");
        client->push(query, t_ns, samples);
      }
      const int64_t c = now_ns();
      ++pushed;
      ingest_ns += static_cast<double>(b - a);
      if (traced) smp.push_us.push_back(static_cast<double>(c - b) / 1e3);
    }
    const int64_t t2 = now_ns();
    {
      const Tracer::Scope s = tracer.span("obs.health_eval");
      healthd->evaluate(t_ns);
    }
    const int64_t t3 = now_ns();
    st.round_ms.push_back(static_cast<double>(t3 - t0) / 1e6);
    // The round closes a stretch of the replay.  Its snapshot waits for
    // every batch fed before it, so no work of the stretch is left over.
    st.stretch_s.push_back(static_cast<double>(t3 - stretch_start) / 1e9);
    stretch_start = t3;
    if (traced) {
      smp.snapshot_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
      smp.ingest_ms.push_back(ingest_ns / 1e6);
      smp.health_ms.push_back(static_cast<double>(t3 - t2) / 1e6);
      smp.rows.push_back(rows);
    }
    ++n_rounds;
    final_round = std::move(round);
    final_stamp = t_ns;
  };

  // ---- replay ------------------------------------------------------------
  const int64_t replay_start = now_ns();
  const double cpu_start = cpu_now_s();
  stretch_start = replay_start;
  net::PacketBatch batch(kBatch);
  uint64_t t_first = 0;
  uint64_t next_round = 0;
  int64_t fill_ns = 0, step_ns = 0;
  for (;;) {
    const int64_t b0 = now_ns();
    size_t n = 0;
    {
      const Tracer::Scope s = tracer.span("net.fill");
      n = reader->fill(batch, kBatch);
    }
    const int64_t b1 = now_ns();
    fill_ns += b1 - b0;
    if (n == 0) break;
    const uint64_t last_ns = trace_ns(batch[n - 1].ts);
    if (st.packets == 0) {
      t_first = trace_ns(batch[0].ts);
      next_round = t_first + every_ns;
    }
    if (set) {
      const Tracer::Scope s = tracer.span("core.on_batch");
      set->on_batch(batch.packets());
    } else {
      const Tracer::Scope s = tracer.span("core.feed");
      par->feed(std::move(batch));
    }
    const int64_t b2 = now_ns();
    step_ns += b2 - b1;
    st.batch_us.push_back(static_cast<double>(b2 - b0) / 1e3);
    st.packets += n;
    // One round per batch that crosses a cadence point, stamped with the
    // last point crossed.
    if (last_ns >= next_round) {
      const uint64_t stamp =
          t_first + (last_ns - t_first) / every_ns * every_ns;
      do_round(stamp);
      next_round = stamp + every_ns;
    }
  }
  if (par) {
    const int64_t t0 = now_ns();
    {
      const Tracer::Scope s = tracer.span("core.finish");
      par->finish();
    }
    st.finish_ns = static_cast<double>(now_ns() - t0);
  }
  do_round(next_round);  // the final round, after the replay drains
  st.replay_s = static_cast<double>(now_ns() - replay_start) / 1e9;
  st.cpu_s = cpu_now_s() - cpu_start;
  if (traced) {
    st.fill_ns = static_cast<double>(fill_ns);
    (set ? st.on_batch_ns : st.feed_ns) = static_cast<double>(step_ns);
  }

  for (const auto& s : set ? set->status() : par->status()) {
    st.state_bytes += static_cast<double>(s.state_bytes);
  }
  st.resident_bytes = static_cast<double>(edge->resident_bytes());
  if (par) {
    double max = 0, sum = 0;
    for (int i = 0; i < par->workers(); ++i) {
      const double p = static_cast<double>(par->shard_set(i).packets());
      max = std::max(max, p);
      sum += p;
    }
    st.shard_skew = max / (sum / par->workers());
  }
  const core::QuerySet& any_set = set ? *set : par->shard_set(0);
  st.atom_ratio = any_set.atom_pool_size() == 0
                      ? 0
                      : static_cast<double>(any_set.atom_refs()) /
                            static_cast<double>(any_set.atom_pool_size());
  st.evicted_keys = static_cast<double>(edge->evicted_keys());
  st.health_transitions = static_cast<double>(healthd->transitions_total());

  range_reader.request_stop();
  range_reader.join();
  if (traced) {
    // The pass's reads straight from the store, now idle: the gap to the
    // reads' latency is HTTP's cost plus the wait for the store's mutex.
    for (size_t k = 0; k < n_rounds; ++k) {
      const RangeRead& read = in.reads[k % in.reads.size()];
      store::RangeResult out;
      const int64_t t0 = now_ns();
      {
        const Tracer::Scope s = tracer.span("store.query");
        edge->query(read.context, read.query, out);
      }
      smp.query_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    }
  }
  {
    const Tracer::Scope s = tracer.span("store.stream_flush");
    client->stop();
  }
  st.rounds_sent = static_cast<double>(client->rounds_sent());

  // ---- checks (untimed) ---------------------------------------------------
  const Tracer::Scope checks_span = tracer.span("bench.checks");
  const auto final_rows = rows_by_query(final_round);
  for (const Tenant& t : w.tenants) {
    ++st.attempted;
    const auto it = final_rows.find(t.main);
    const Rows got = it != final_rows.end() ? it->second : Rows{};
    std::string why = in.backbone
                          ? diff_rows(in.backbone->expected(t.main), got)
                          : in.attacks->check(t.main, got);
    if (why.empty() && par) {
      why = diff_rows(in.single.at(t.main), got);
      if (!why.empty()) why = "merged vs single-threaded: " + why;
    }
    if (!why.empty()) fail(t.main + ": " + why);
  }

  // Each round body is one operation, and delivering every alert body of
  // the pass one more (their number depends on the built-in rules, which
  // read wall-clock-driven series).  The client counts both kinds of body
  // together; the parent's handler counts the alert lines it applied.
  // Each round's range read is one more.
  st.attempted += pushed + 1 + n_rounds;
  const uint64_t lost = client->rounds_dropped() + client->push_failures();
  const uint64_t alerts_lost = alert_pushes - alerts_received.load();
  const uint64_t rounds_lost = lost > alerts_lost ? lost - alerts_lost : 0;
  if (rounds_lost > 0) {
    fail(std::to_string(rounds_lost) + " round bodies lost", rounds_lost);
  }
  if (alerts_lost > 0) {
    fail(std::to_string(alerts_lost) + " of " + std::to_string(alert_pushes) +
         " alert bodies lost");
  }
  if (read_failures > 0) {
    fail(std::to_string(read_failures) + " range reads failed",
         read_failures);
  }

  // The parent's view of every context equals the edge store's.
  for (const Tenant& t : w.tenants) {
    ++st.attempted;
    const std::string range = "&after=-100000&before=0";
    const HttpReply mine = http_get(
        edge_srv->port(), "/api/v1/data?context=" + url_encode(t.main) + range);
    const HttpReply theirs =
        http_get(parent->port(),
                 "/api/v1/data?context=" + url_encode("edge/" + t.main) + range);
    if (mine.status != 200 || theirs.status != 200 || !valid_json(mine.body) ||
        !valid_json(theirs.body)) {
      fail(t.main + ": range read failed (" + std::to_string(mine.status) +
           ", " + std::to_string(theirs.status) + ")");
      continue;
    }
    // Bodies differ only in the "context" member, which precedes "tier".
    const auto tail = [](const std::string& b) {
      const size_t at = b.find("\"tier\"");
      return at == std::string::npos ? b : b.substr(at);
    };
    if (tail(mine.body) != tail(theirs.body)) {
      fail(t.main + ": parent view differs from the edge store");
    }
  }

  // Store properties: the key budget holds, every retained key's latest
  // tier-0 point is the final round's value (or a gap where the round had
  // no such row), and tier-1 points fold the tier-0 rounds they cover.
  for (const Tenant& t : w.tenants) {
    st.attempted += 3;
    if (edge->keys(t.main) > w.store_keys) {
      fail(t.main + ": " + std::to_string(edge->keys(t.main)) +
           " keys over the budget");
    }
    store::RangeResult all;
    edge->query(t.main, store::RangeQuery{}, all);
    const Rows& snap = final_rows.at(t.main);
    std::string latest_why, tier1_why;
    for (const std::string& key : all.dimensions) {
      const auto t0 = edge->tier_points(t.main, key, 0);
      const auto sv = snap.find(key);
      const bool latest_ok =
          !t0.empty() &&
          (sv == snap.end() ? t0.back().point.count == 0
                            : t0.back().point.count == 1 &&
                                  t0.back().point.sum == sv->second);
      if (latest_why.empty() && !latest_ok) {
        latest_why = t.main + ": latest tier-0 value of '" + key +
                     "' is not the final round's";
      }
      // Tier-0 entry i is round n_rounds - t0.size() + i; tier-1 point j
      // folds rounds [10j, 10j + 10).
      const auto t1 = edge->tier_points(t.main, key, 1);
      const size_t first = n_rounds - t0.size();
      const uint32_t every = scfg.tier1_every;
      for (size_t j = 0; j < t1.size() && tier1_why.empty(); ++j) {
        store::TierPoint want;
        for (size_t r = j * every; r < (j + 1) * every; ++r) {
          if (r >= first && r < n_rounds) want.merge(t0[r - first].point);
        }
        if (agg_of(want) != agg_of(t1[j].point)) {
          tier1_why = t.main + ": tier-1 point " + std::to_string(j) +
                      " of '" + key + "' is not the aggregate of its rounds";
        }
      }
    }
    if (!latest_why.empty()) fail(latest_why);
    if (!tier1_why.empty()) fail(tier1_why);
  }

  // Windows anchor on ingested data, so the store rules' transitions
  // repeat exactly on every pass over the same capture.
  ++st.attempted;
  if (reference_log && *reference_log != st.health_log) {
    fail("health transition log differs from the first pass");
  }

  if (traced) {
    for (const auto& [query, results] : final_round) {
      std::vector<store::Sample> samples;
      for (const auto& r : results) samples.push_back({r.key, r.value});
      const std::string body =
          store::render_push("edge", query, final_stamp, samples);
      store::SeriesStore scratch(scfg);
      const int64_t t0 = now_ns();
      {
        const Tracer::Scope s = tracer.span("store.apply_push");
        store::apply_push(scratch, body);
      }
      st.apply_ns += static_cast<double>(now_ns() - t0);
    }
    // The lang share of apps::load_query (lint, compile, certify), timed
    // apart from the set-up, which calls load_query itself.
    for (const Tenant& t : w.tenants) {
      const std::string& text = in.sources.at(t.file);
      const int64_t t0 = now_ns();
      {
        const Tracer::Scope s = tracer.span("lang.compile");
        (void)lang::has_errors(lang::analyze_source(text));
        const lang::CompiledProgram prog = lang::compile_source(text, t.main);
        (void)lang::certify(prog, t.main);
      }
      st.compile_ns += static_cast<double>(now_ns() - t0);
    }
  }
  return st;
}

std::map<std::string, double> tenant_costs(const Inputs& in,
                                           const std::vector<Tenant>& tenants,
                                           uint64_t max_packets) {
  std::map<std::string, double> out;
  const uint64_t packets = std::min(max_packets, in.packets);
  for (const Tenant& t : tenants) {
    core::QuerySet set;
    apps::QuerySetRuntime rt;
    rt.set = &set;
    load_or_throw(rt, t, query_source(t.file));
    const int64_t ns = replay(in.pcap, set, packets);
    out[t.main] = static_cast<double>(ns) / static_cast<double>(set.packets());
  }
  return out;
}

}  // namespace perfbench
