// Result oracles, written from the query definitions and the generators'
// configurations — never from the monitor's own output.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "capture.hpp"

namespace perfbench {

// One tenant's snapshot: result key -> value.
using Rows = std::map<std::string, double>;

// "" when `got` equals `want` key for key and value for value, else the
// first difference.
std::string diff_rows(const Rows& want, const Rows& got);

// Recomputes the compiled backbone tenants from the packets as written:
// bytes and packets per (srcip, dstip), distinct dstip per srcip, packets
// per srcip, bytes per srcip over the last 5 s, total bytes, and per-srcip
// keyword and long-qname counts over dport 25 / dport 53 packets.
class BackboneOracle {
 public:
  void add(const netqre::net::Packet& p, const PayloadFacts& facts);

  // Expected final rows of `tenant` (its entry sfun name).
  [[nodiscard]] Rows expected(const std::string& tenant) const;

 private:
  struct Pair {
    double bytes = 0;
    double packets = 0;
  };
  struct Src {
    double packets = 0;
    double dsts = 0;
    bool smtp = false;  // sent to dport 25
    bool dns = false;   // sent to dport 53
    double keyword = 0;
    double long_qname = 0;
  };
  struct Sent {
    double ts;
    uint32_t src;
    uint32_t len;
  };
  std::unordered_map<uint64_t, Pair> pairs_;  // (src << 32 | dst)
  std::unordered_map<uint32_t, Src> srcs_;
  std::vector<Sent> sent_;  // for the sliding window
  double total_bytes_ = 0;
};

// Checks the attack-mix tenants against facts the generators'
// configuration fixes (attack sizes, attacker and victim addresses, call
// counts) and, for the per-connection tenants, against the TCP
// connections the capture holds.
class AttackOracle {
 public:
  explicit AttackOracle(const AttackMix& mix);

  // "" when `got` holds for `tenant` (its entry sfun name).
  [[nodiscard]] std::string check(const std::string& tenant,
                                  const Rows& got) const;

 private:
  const AttackMix& mix_;
  size_t tcp_conns_ = 0;
  double lifetime_max_ = 0;
  double lifetime_sum_ = 0;
  double dup_acks_ = 0;
  double avg_rate_ = 0;
  size_t new_conns_ = 0;         // connections opened by a bare SYN
  size_t recent_conns_ = 0;      // ... inside every recent(5) pane
  // Connections with over 50 half-open handshakes (their block rows) and
  // the sources that opened them.
  Rows flooded_;
  std::set<uint32_t> flooders_;
  bool amp_alert_ = false;       // dns_amp_alert holds at the last packet
  Rows keyword_;                 // expected keyword_pkts rows
  Rows long_qnames_;             // expected dns_long_queries rows
};

}  // namespace perfbench
