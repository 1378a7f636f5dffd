#include "spans.hpp"

#include <atomic>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "obs/json.hpp"

namespace perfbench {

namespace {

thread_local std::vector<int32_t> t_open;  // open spans of this thread
std::atomic<uint32_t> g_next_tid{1};
thread_local uint32_t t_tid = 0;

uint32_t thread_id() {
  if (t_tid == 0) t_tid = g_next_tid.fetch_add(1);
  return t_tid;
}

std::string layer_of(const char* name) {
  const std::string s(name);
  const size_t dot = s.find('.');
  return dot == std::string::npos ? s : s.substr(0, dot);
}

}  // namespace

Tracer::Scope Tracer::span(const char* name) {
  if (!enabled_) return Scope(nullptr, -1);
  Span s;
  s.name = name;
  s.parent = t_open.empty() ? -1 : t_open.back();
  s.tid = thread_id();
  int32_t index = 0;
  {
    std::lock_guard lock(mu_);
    index = static_cast<int32_t>(spans_.size());
    spans_.push_back(s);
  }
  t_open.push_back(index);
  // Stamp the start last, so the bookkeeping above is not timed.
  const int64_t start = now_ns();
  std::lock_guard lock(mu_);
  spans_[static_cast<size_t>(index)].start_ns = start;
  return Scope(this, index);
}

void Tracer::close(int32_t index) {
  const int64_t end = now_ns();
  if (!t_open.empty() && t_open.back() == index) t_open.pop_back();
  std::lock_guard lock(mu_);
  spans_[static_cast<size_t>(index)].end_ns = end;
}

std::map<std::string, double> Tracer::self_ns_by_layer() const {
  std::lock_guard lock(mu_);
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
  }
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      self[static_cast<size_t>(s.parent)] -=
          static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    out[layer_of(spans_[i].name)] += self[i];
  }
  return out;
}

void Tracer::write_chrome(const std::string& path) const {
  std::lock_guard lock(mu_);
  netqre::obs::JsonWriter w;
  w.begin_object();
  w.key("traceEvents").begin_array();
  const int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    w.begin_object();
    w.key("name").value(s.name);
    w.key("cat").value(layer_of(s.name));
    w.key("ph").value("X");
    // Chrome trace times are microseconds; fixed-point keeps ns precision.
    char ts[32];
    std::snprintf(ts, sizeof ts, "%.3f",
                  static_cast<double>(s.start_ns - t0) / 1e3);
    w.key("ts").raw(ts);
    std::snprintf(ts, sizeof ts, "%.3f",
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    w.key("dur").raw(ts);
    w.key("pid").value(int64_t{1});
    w.key("tid").value(static_cast<int64_t>(s.tid));
    w.key("args").begin_object();
    w.key("id").value(static_cast<int64_t>(i));
    w.key("parent").value(static_cast<int64_t>(s.parent));
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace " + path);
  out << w.str() << "\n";
}

}  // namespace perfbench
