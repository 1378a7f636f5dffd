// Seeded capture builders.  The monitor under test sees only the pcap
// files these write; the oracles see the packets exactly as written
// (microsecond timestamps, stored wire length) plus the payload facts the
// builder fixed.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "net/packet.hpp"
#include "trafficgen/trafficgen.hpp"

namespace perfbench {

// The keyword email_keywords.nqre watches for.
inline constexpr const char* kKeyword = "invoice";

// Derives the i-th sub-seed of the workload seed.
uint64_t sub_seed(uint64_t seed, uint64_t i);

// `ts` at the microsecond resolution a classic pcap record keeps, as the
// readers decode it.
double pcap_time(double ts);

// What the builder put into a backbone packet's payload.
struct PayloadFacts {
  bool keyword = false;  // payload carries kKeyword
  int qname_len = 0;     // DNS question name length (0 = no DNS question)
};

struct BackboneShape {
  uint64_t packets = 0;
  uint32_t flows = 0;
  // Full frames carry payload bytes up to the wire length (dport 25
  // frames sometimes the keyword, dport 53 frames a DNS question);
  // header-only frames carry none — the smallest frames.
  bool full_frames = false;
};

// Writes the seeded backbone capture (trafficgen::BackboneStream) to
// `path`; `visit` sees every packet as written.
void write_backbone(
    const std::string& path, const BackboneShape& shape, uint64_t seed,
    const std::function<void(const netqre::net::Packet&,
                             const PayloadFacts&)>& visit);

// The attack mix: six generators merged by timestamp, every TCP
// connection completed with its server-to-client direction.
struct AttackMix {
  netqre::trafficgen::SynFloodConfig syn;
  netqre::trafficgen::SlowlorisConfig slowloris;
  netqre::trafficgen::SmtpConfig smtp;
  netqre::trafficgen::SipConfig sip;
  netqre::trafficgen::TlsRenegConfig tls;
  netqre::trafficgen::DnsConfig dns;
  // A flood the syn_flood generator does not make (its attack SYNs spread
  // over random source ports): `burst_handshakes` half-open handshakes from
  // the attacker on one 4-tuple, all inside the last recent(5) window, so
  // syn_flood.nqre (over 50 per connection) must block the attacker.
  uint16_t burst_port = 40404;
  uint32_t burst_handshakes = 60;
  std::vector<netqre::net::Packet> packets;  // as written
};

AttackMix make_attack_mix(uint64_t seed);

// Writes `packets` (already at pcap_time resolution) to `path`.
void write_packets(const std::string& path,
                   const std::vector<netqre::net::Packet>& packets);

}  // namespace perfbench
