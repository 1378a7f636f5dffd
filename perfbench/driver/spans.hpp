// In-memory span recorder for the traced run.
//
// A span is one public call the driver makes into a layer of the monitor
// (net, lang, core, store, obs, apps) or one stage of the driver itself
// (bench).  The layer is the span name's prefix up to the first '.'.
// Spans stay in memory and are written once, at exit, as Chrome trace
// JSON — the trace_event format /api/v1/tracez serves.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  struct Span {
    const char* name = "";
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int32_t parent = -1;  // index into spans(), -1 = root
    uint32_t tid = 0;     // small per-thread id
  };

  // Closes its span on destruction; does nothing when tracing is off.
  class Scope {
   public:
    Scope(Tracer* t, int32_t index) : tracer_(t), index_(index) {}
    ~Scope() {
      if (tracer_) tracer_->close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int32_t index_;
  };

  [[nodiscard]] bool enabled() const { return enabled_; }
  // Spans are recorded only while enabled (the traced run toggles this
  // between its traced and untraced passes).
  void set_enabled(bool on) { enabled_ = on; }

  // Opens a span named `name` (a string literal) under the innermost open
  // span of the calling thread.
  [[nodiscard]] Scope span(const char* name);

  // Self time per layer: each span's duration minus the part of it its
  // child spans cover, summed by name prefix.
  [[nodiscard]] std::map<std::string, double> self_ns_by_layer() const;

  // Writes every span as a Chrome trace_event document.
  void write_chrome(const std::string& path) const;

 private:
  void close(int32_t index);

  bool enabled_ = false;
  mutable std::mutex mu_;  // guards spans_
  std::vector<Span> spans_;
};

}  // namespace perfbench
