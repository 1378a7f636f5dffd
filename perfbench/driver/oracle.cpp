#include "oracle.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <stdexcept>
#include <tuple>

#include "net/ipv4.hpp"

namespace perfbench {

using netqre::net::format_ip;
using netqre::net::Packet;

namespace {

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

bool close_to(double want, double got) {
  return std::fabs(want - got) <= 1e-9 * std::max(1.0, std::fabs(want));
}

}  // namespace

std::string diff_rows(const Rows& want, const Rows& got) {
  if (want.size() != got.size()) {
    return "expected " + std::to_string(want.size()) + " rows, got " +
           std::to_string(got.size());
  }
  for (const auto& [key, value] : want) {
    const auto it = got.find(key);
    if (it == got.end()) {
      return "missing row '" + key + "' (first row is '" +
             got.begin()->first + "')";
    }
    if (it->second != value) {
      return "row '" + key + "': expected " + num(value) + ", got " +
             num(it->second);
    }
  }
  return "";
}

// ---------------------------------------------------------------- backbone

void BackboneOracle::add(const Packet& p, const PayloadFacts& facts) {
  const double len = p.wire_len;
  Pair& pair = pairs_[uint64_t{p.src_ip} << 32 | p.dst_ip];
  Src& src = srcs_[p.src_ip];
  if (pair.packets == 0) src.dsts += 1;
  pair.packets += 1;
  pair.bytes += len;
  src.packets += 1;
  if (p.dst_port == 25) {
    src.smtp = true;
    if (facts.keyword) src.keyword += 1;
  }
  if (p.dst_port == 53) {
    src.dns = true;
    if (facts.qname_len > 40) src.long_qname += 1;
  }
  sent_.push_back({p.ts, p.src_ip, p.wire_len});
  total_bytes_ += len;
}

Rows BackboneOracle::expected(const std::string& tenant) const {
  Rows out;
  const auto pair_key = [](uint64_t k) {
    return format_ip(static_cast<uint32_t>(k >> 32)) + "," +
           format_ip(static_cast<uint32_t>(k));
  };
  if (tenant == "hh" || tenant == "flow_pkts") {
    for (const auto& [k, pair] : pairs_) {
      out[pair_key(k)] = tenant == "hh" ? pair.bytes : pair.packets;
    }
  } else if (tenant == "ss" || tenant == "src_pkts") {
    for (const auto& [ip, src] : srcs_) {
      out[format_ip(ip)] = tenant == "ss" ? src.dsts : src.packets;
    }
  } else if (tenant == "recent_src_bytes") {
    // recent(5): bytes of the packets in the 5 s before the last one.
    const double from = sent_.empty() ? 0 : sent_.back().ts - 5.0;
    for (const Sent& s : sent_) {
      if (s.ts >= from) out[format_ip(s.src)] += s.len;
    }
  } else if (tenant == "total_bytes") {
    out["value"] = total_bytes_;
  } else if (tenant == "keyword_pkts" || tenant == "dns_long_queries") {
    const bool kw = tenant == "keyword_pkts";
    for (const auto& [ip, src] : srcs_) {
      if (kw ? src.smtp : src.dns) {
        out[format_ip(ip)] = kw ? src.keyword : src.long_qname;
      }
    }
  } else {
    throw std::invalid_argument("no backbone oracle for " + tenant);
  }
  return out;
}

// ------------------------------------------------------------------ attacks

namespace {

// Canonical (direction-free) TCP connection.
using ConnKey = std::tuple<uint32_t, uint16_t, uint32_t, uint16_t>;

ConnKey conn_of(const Packet& p) {
  const auto a = std::make_pair(p.src_ip, p.src_port);
  const auto b = std::make_pair(p.dst_ip, p.dst_port);
  const auto& lo = std::min(a, b);
  const auto& hi = std::max(a, b);
  return {lo.first, lo.second, hi.first, hi.second};
}

// Distinct (x, y) pairs of syn_flood.nqre's bad_tcp_pat: a bare SYN with
// seq x, later a SYN-ACK with seq y acking x+1, and no later ACK of y+1.
size_t half_open(const std::vector<const Packet*>& pkts) {
  std::set<std::pair<uint32_t, uint32_t>> pairs;
  for (size_t i = 0; i < pkts.size(); ++i) {
    const Packet& syn = *pkts[i];
    if (!syn.syn() || syn.ack()) continue;
    for (size_t j = i + 1; j < pkts.size(); ++j) {
      const Packet& sa = *pkts[j];
      if (!sa.syn() || !sa.ack() || sa.ack_no != syn.seq + 1) continue;
      bool acked = false;
      for (size_t k = j + 1; k < pkts.size() && !acked; ++k) {
        acked = pkts[k]->ack() && pkts[k]->ack_no == sa.seq + 1;
      }
      if (!acked) pairs.emplace(syn.seq, sa.seq);
    }
  }
  return pairs.size();
}

}  // namespace

AttackOracle::AttackOracle(const AttackMix& mix) : mix_(mix) {
  std::map<ConnKey, std::vector<const Packet*>> conns;
  double resp = 0;  // bytes from port 53 to the last packet's destination
  double req = 0;   // bytes it sent to port 53
  const uint32_t last_dst = mix.packets.back().dst_ip;
  for (const Packet& p : mix.packets) {
    if (p.is_tcp()) conns[conn_of(p)].push_back(&p);
    if (p.dst_ip == last_dst && p.src_port == 53) resp += p.wire_len;
    if (p.src_ip == last_dst && p.dst_port == 53) req += p.wire_len;
    if (p.dst_port == 25) {
      keyword_[format_ip(p.src_ip)] =
          p.src_ip == mix.smtp.spammer_ip ? mix.smtp.keyword_mails : 0;
    }
    if (p.dst_port == 53) {
      long_qnames_[format_ip(p.src_ip)] =
          p.src_ip == mix.dns.tunnel_client ? mix.dns.tunnel_queries : 0;
    }
  }
  amp_alert_ = resp > 10 * req;
  // recent(5) answers from the pane covering the most history within 5 s;
  // with 8 panes that covers at least the last 5 - 5/8 s.
  const double recent_from = mix.packets.back().ts - (5.0 - 5.0 / 8);

  tcp_conns_ = conns.size();
  double rate_sum = 0;
  for (const auto& [key, pkts] : conns) {
    const double life = pkts.back()->ts - pkts.front()->ts;
    lifetime_max_ = std::max(lifetime_max_, life);
    lifetime_sum_ += life;
    double bytes = 0;
    std::map<uint32_t, int> acks;
    bool opened = false, opened_recently = false;
    uint32_t opener = 0;
    for (const Packet* p : pkts) {
      bytes += p->wire_len;
      if (p->ack()) ++acks[p->ack_no];
      const bool bare_syn = p->syn() && !p->ack();
      if (bare_syn && !opened) opener = p->src_ip;
      opened |= bare_syn;
      opened_recently |= bare_syn && p->ts > recent_from;
    }
    if (life > 0) rate_sum += bytes / life;  // x/0 is undefined
    for (const auto& [ackno, n] : acks) dup_acks_ += n >= 2 ? 1 : 0;
    new_conns_ += opened ? 1 : 0;
    recent_conns_ += opened_recently ? 1 : 0;
    // The flood burst lies inside the window, so the whole-capture count
    // of each connection decides the block.
    if (half_open(pkts) > 50) {
      // Action rows carry no number: the value is 0.
      flooded_[format_ip(std::get<0>(key)) + ":" +
               std::to_string(std::get<1>(key)) + "<->" +
               format_ip(std::get<2>(key)) + ":" +
               std::to_string(std::get<3>(key))] = 0;
      flooders_.insert(opener);
    }
  }
  avg_rate_ = rate_sum / static_cast<double>(tcp_conns_);
}

std::string AttackOracle::check(const std::string& tenant,
                                const Rows& got) const {
  const auto sum = [&got] {
    double s = 0;
    for (const auto& [k, v] : got) s += v;
    return s;
  };
  const auto rows_per_conn = [&]() -> std::string {
    if (got.size() == tcp_conns_) return "";
    return "expected one row per TCP connection (" +
           std::to_string(tcp_conns_) + "), got " +
           std::to_string(got.size());
  };
  if (tenant == "voip_call_count") {
    return diff_rows({{"value", mix_.sip.n_calls}}, got);
  }
  if (tenant == "keyword_pkts") return diff_rows(keyword_, got);
  if (tenant == "dns_long_queries") return diff_rows(long_qnames_, got);
  if (tenant == "completed_flows") {
    // Only the Slowloris generator's normal clients close with a FIN.
    for (const auto& [k, v] : got) {
      if (v != 0 && v != 1) return "row '" + k + "' is " + num(v);
    }
    if (sum() != mix_.slowloris.normal_conns) {
      return "completed flows " + num(sum()) + ", expected " +
             std::to_string(mix_.slowloris.normal_conns);
    }
    return rows_per_conn();
  }
  if (tenant == "lifetime") {
    double max = 0;
    for (const auto& [k, v] : got) max = std::max(max, v);
    if (max != lifetime_max_) {
      return "max lifetime " + num(max) + ", expected " + num(lifetime_max_);
    }
    if (!close_to(lifetime_sum_, sum())) {
      return "lifetime sum " + num(sum()) + ", expected " +
             num(lifetime_sum_);
    }
    return rows_per_conn();
  }
  if (tenant == "dup_acks") {
    if (sum() != dup_acks_) {
      return "duplicated ACK numbers " + num(sum()) + ", expected " +
             num(dup_acks_);
    }
    return rows_per_conn();
  }
  if (tenant == "avg_rate") {
    const auto it = got.find("value");
    if (got.size() != 1 || it == got.end()) return "expected one value row";
    if (!close_to(avg_rate_, it->second)) {
      return "avg_rate " + num(it->second) + ", expected " + num(avg_rate_);
    }
    return "";
  }
  if (tenant == "recent_new_conns") {
    // One 1-valued row per connection opened inside the window: at least
    // those whose bare SYN falls in the part every pane covers, at most
    // every connection opened by a bare SYN.  (The exact windowed count is
    // not checked; see README "Known faults".)
    for (const auto& [k, v] : got) {
      if (v != 1) return "row '" + k + "' is " + num(v);
    }
    if (got.size() < recent_conns_ || got.size() > new_conns_) {
      return std::to_string(got.size()) + " new connections, expected " +
             std::to_string(recent_conns_) + " to " +
             std::to_string(new_conns_);
    }
    return "";
  }
  if (tenant == "syn_flood") {
    // One block row, keyed by the burst's connection (the attacker's
    // address and port): it alone has over 50 half-open handshakes, since
    // the generator's attack SYNs spread over random source ports.
    if (flooders_ != std::set<uint32_t>{mix_.syn.attacker_ip}) {
      return "capture's flooding sources are not the attacker alone";
    }
    return diff_rows(flooded_, got);
  }
  if (tenant == "dns_amp_alert") {
    // alert(last.dstip): the capture ends on the amplification burst, so
    // last.dstip is the victim, whose response bytes exceed ten times its
    // request bytes.  The snapshot keeps no action argument (one "value"
    // row of 0), so the row cannot name the victim itself.
    if (mix_.packets.back().dst_ip != mix_.dns.victim_ip || !amp_alert_) {
      return "capture does not end on the amplification victim";
    }
    return diff_rows({{"value", 0}}, got);
  }
  throw std::invalid_argument("no attack oracle for " + tenant);
}

}  // namespace perfbench
