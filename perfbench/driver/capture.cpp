#include "capture.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>
#include <utility>

#include "net/flow.hpp"
#include "net/pcap.hpp"

namespace perfbench {

using netqre::net::Packet;
using netqre::net::Proto;
using netqre::net::TcpFlags;

uint64_t sub_seed(uint64_t seed, uint64_t i) {
  return netqre::net::mix64(seed * 0x9e3779b97f4a7c15ull + i + 1);
}

double pcap_time(double ts) {
  // PcapWriter::write's split, then the readers' recombination.
  uint32_t sec = static_cast<uint32_t>(ts);
  uint32_t usec = static_cast<uint32_t>(std::llround((ts - sec) * 1e6));
  if (usec >= 1000000) {
    sec += 1;
    usec -= 1000000;
  }
  return sec + usec * 1e-6;
}

namespace {

size_t header_bytes(const Packet& p) {
  const size_t l4 = p.proto == Proto::Tcp ? 20 : p.proto == Proto::Udp ? 8 : 0;
  return 14 + 20 + l4;
}

// Stored wire length: PcapWriter::write_packet records at least the
// encoded frame size.
void settle(Packet& p) {
  p.ts = pcap_time(p.ts);
  p.wire_len = std::max<uint32_t>(
      p.wire_len, static_cast<uint32_t>(header_bytes(p) + p.payload.size()));
}

// One-question DNS query whose name is `qname_len` bytes (a hex label
// plus ".com"), padded with 'x' to `size` bytes.
std::string dns_query(uint64_t h, int qname_len, size_t size) {
  static constexpr char kHex[] = "0123456789abcdef";
  const int label = qname_len - 4;
  std::string m = {static_cast<char>(h >> 8), static_cast<char>(h), 0x01,
                   0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00};
  m += static_cast<char>(label);
  for (int i = 0; i < label; ++i) {
    h = netqre::net::mix64(h + static_cast<uint64_t>(i));
    m += kHex[h & 15];
  }
  m += "\x03"
       "com";
  m += '\0';
  m += std::string("\x00\x01\x00\x01", 4);  // QTYPE A, QCLASS IN
  if (m.size() < size) m.append(size - m.size(), 'x');
  return m;
}

}  // namespace

void write_backbone(
    const std::string& path, const BackboneShape& shape, uint64_t seed,
    const std::function<void(const Packet&, const PayloadFacts&)>& visit) {
  netqre::trafficgen::BackboneConfig cfg;
  cfg.n_packets = shape.packets;
  cfg.n_flows = shape.flows;
  cfg.seed = sub_seed(seed, 0);
  const netqre::trafficgen::BackboneStream stream(cfg);
  const uint64_t payload_seed = sub_seed(seed, 1);
  netqre::net::PcapWriter out(path);
  for (uint64_t i = 0; i < shape.packets; ++i) {
    Packet p = stream.packet(i);
    PayloadFacts facts;
    const size_t header = header_bytes(p);
    if (shape.full_frames && p.wire_len > header) {
      const size_t len = p.wire_len - header;
      const uint64_t h = netqre::net::mix64(payload_seed ^ i);
      // The smallest DNS question below is 26 bytes.
      if (p.dst_port == 53 && len >= 26) {
        facts.qname_len = 8 + static_cast<int>(h % 53);  // 8..60
        p.payload = dns_query(h, facts.qname_len, len);
      } else {
        p.payload.assign(len, 'x');
        const size_t kw = std::strlen(kKeyword);
        if (p.dst_port == 25 && len >= kw && (h & 3) == 0) {
          p.payload.replace((h >> 8) % (len - kw + 1), kw, kKeyword);
          facts.keyword = true;
        }
      }
    }
    settle(p);
    out.write_packet(p);
    visit(p, facts);
  }
  out.flush();
}

namespace {

// Distinct (src, sport) pairs among packets matching `opens`.
template <typename Pred>
size_t distinct_openers(const std::vector<Packet>& pkts, Pred opens) {
  std::set<std::pair<uint32_t, uint16_t>> seen;
  for (const Packet& p : pkts) {
    if (opens(p)) seen.emplace(p.src_ip, p.src_port);
  }
  return seen.size();
}

// Adds the server's side of client-only TCP traffic: a SYN-ACK per SYN and
// an ACK per other segment, 50 us after it.
void add_server_side(std::vector<Packet>& pkts, uint64_t seed) {
  const size_t n = pkts.size();
  for (size_t i = 0; i < n; ++i) {
    const Packet c = pkts[i];
    if (!c.is_tcp()) continue;
    Packet s;
    s.ts = c.ts + 5e-5;
    s.src_ip = c.dst_ip;
    s.dst_ip = c.src_ip;
    s.src_port = c.dst_port;
    s.dst_port = c.src_port;
    s.proto = Proto::Tcp;
    s.seq = static_cast<uint32_t>(
        netqre::net::mix64(seed ^ (uint64_t{c.src_ip} << 16 | c.src_port)));
    const uint32_t data = std::max<uint32_t>(
        static_cast<uint32_t>(c.payload.size()),
        c.wire_len > 54 ? c.wire_len - 54 : 0);
    if (c.syn()) {
      s.tcp_flags = TcpFlags::kSyn | TcpFlags::kAck;
      s.ack_no = c.seq + 1;
    } else {
      s.tcp_flags = TcpFlags::kAck;
      s.seq += 1;
      s.ack_no = c.seq + std::max<uint32_t>(1, data);
    }
    s.wire_len = 54;
    pkts.push_back(s);
  }
}

template <typename Cfg, typename Gen, typename Check>
std::vector<Packet> draw(Cfg& cfg, uint64_t seed, uint64_t stream, Gen gen,
                         Check distinct) {
  // Redraw (with a seed derived from the workload seed) until every
  // connection the generator opens has its own 4-tuple: the oracles count
  // connections, and two that share a tuple are one connection.
  for (uint64_t k = 0;; ++k) {
    cfg.seed = sub_seed(seed, stream + 100 * k);
    std::vector<Packet> pkts = gen(cfg);
    if (distinct(pkts)) return pkts;
  }
}

}  // namespace

AttackMix make_attack_mix(uint64_t seed) {
  namespace tg = netqre::trafficgen;
  AttackMix m;
  std::vector<Packet> all;
  // Every generator is spread over the same ~30 s (its timestamps scaled
  // to [start, start + span]), so each batch carries a similar mix.
  const auto append = [&all](std::vector<Packet> pkts, double start,
                             double span) {
    double lo = pkts.front().ts, hi = pkts.front().ts;
    for (const Packet& p : pkts) {
      lo = std::min(lo, p.ts);
      hi = std::max(hi, p.ts);
    }
    const double scale = hi > lo ? span / (hi - lo) : 1.0;
    for (Packet& p : pkts) {
      p.ts = start + (p.ts - lo) * scale;
      all.push_back(std::move(p));
    }
  };

  append(draw(m.syn, seed, 1, tg::syn_flood_trace,
              [&](const std::vector<Packet>& pkts) {
                return distinct_openers(pkts, [&](const Packet& p) {
                         return p.tcp_flags == TcpFlags::kSyn &&
                                p.src_ip != m.syn.attacker_ip;
                       }) == m.syn.benign_handshakes;
              }),
         0.5, 29.0);

  auto slow = draw(m.slowloris, seed, 2, tg::slowloris_trace,
                   [&](const std::vector<Packet>& pkts) {
                     return distinct_openers(pkts, [](const Packet& p) {
                              return p.tcp_flags == TcpFlags::kSyn;
                            }) == m.slowloris.normal_conns +
                                      m.slowloris.slow_conns;
                   });
  add_server_side(slow, sub_seed(seed, 12));
  append(std::move(slow), 0.0, 30.0);

  auto smtp = draw(m.smtp, seed, 3, tg::smtp_trace,
                   [](const std::vector<Packet>&) { return true; });
  add_server_side(smtp, sub_seed(seed, 13));
  append(std::move(smtp), 0.2, 29.5);

  m.sip.media_pkts_per_call = 200;  // media: packets that open no TCP state
  append(draw(m.sip, seed, 4, tg::sip_trace,
              [](const std::vector<Packet>&) { return true; }),
         0.3, 29.5);

  auto tls = draw(m.tls, seed, 5, tg::tls_reneg_trace,
                  [&](const std::vector<Packet>& pkts) {
                    return distinct_openers(pkts, [](const Packet&) {
                             return true;
                           }) == m.tls.normal_conns + 1;
                  });
  add_server_side(tls, sub_seed(seed, 15));
  append(std::move(tls), 0.4, 29.5);

  // DNS ends last: the capture closes on the amplification burst.
  append(draw(m.dns, seed, 6, tg::dns_trace,
              [](const std::vector<Packet>&) { return true; }),
         0.1, 31.0);

  // The half-open burst: SYN, SYN-ACK, no ACK, between 3.5 s and 2 s
  // before the capture's end (recent(5)'s panes cover at least its last
  // 4.375 s).
  double end = 0;
  for (const Packet& p : all) end = std::max(end, p.ts);
  for (uint32_t i = 0; i < m.burst_handshakes; ++i) {
    const uint64_t h = netqre::net::mix64(sub_seed(seed, 7) + i);
    Packet syn;
    syn.ts = end - 3.5 + 1.5 * i / m.burst_handshakes;
    syn.src_ip = m.syn.attacker_ip;
    syn.dst_ip = m.syn.server_ip;
    syn.src_port = m.burst_port;
    syn.dst_port = 80;
    syn.proto = Proto::Tcp;
    syn.tcp_flags = TcpFlags::kSyn;
    syn.seq = static_cast<uint32_t>(h);
    syn.wire_len = 54;
    Packet sa = syn;
    sa.ts = syn.ts + 5e-5;
    std::swap(sa.src_ip, sa.dst_ip);
    std::swap(sa.src_port, sa.dst_port);
    sa.tcp_flags = TcpFlags::kSyn | TcpFlags::kAck;
    sa.seq = static_cast<uint32_t>(h >> 32);
    sa.ack_no = syn.seq + 1;
    all.push_back(syn);
    all.push_back(sa);
  }

  for (Packet& p : all) settle(p);
  std::stable_sort(all.begin(), all.end(),
                   [](const Packet& a, const Packet& b) { return a.ts < b.ts; });
  m.packets = std::move(all);
  return m;
}

void write_packets(const std::string& path, const std::vector<Packet>& packets) {
  netqre::net::write_all(path, packets);
}

}  // namespace perfbench
