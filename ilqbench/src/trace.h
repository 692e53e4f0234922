// Span recorder of the traced run. The benchmark's own code opens a span
// around each call into a library layer; spans stay in memory and are
// written out as JSON lines when the run ends. A span's self time is its
// duration minus the part of it that its child spans cover.

#ifndef ILQBENCH_TRACE_H_
#define ILQBENCH_TRACE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace ilqbench {

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;   ///< 0 = root
  uint64_t request = 0;  ///< request the span belongs to
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled);

  bool on() const { return enabled_; }

  /// Reserves a span id (so children can name their parent before the
  /// span itself ends); 0 when tracing is off.
  uint64_t NewId();

  /// Stores one finished span. No-op when tracing is off.
  void Record(uint64_t id, const char* name, int64_t start_ns, int64_t end_ns,
              uint64_t parent, uint64_t request);

  /// Times a scope as one span.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, uint64_t parent = 0,
          uint64_t request = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    uint64_t id() const { return id_; }

   private:
    Tracer* tracer_;
    const char* name_;
    uint64_t parent_;
    uint64_t request_;
    uint64_t id_;
    int64_t start_ns_;
  };

  /// Sum of the durations (µs) of spans named \p name, per request id.
  std::unordered_map<uint64_t, double> UsByRequest(const char* name) const;

  /// Self time of every recorded span (ns), index-aligned with spans().
  std::vector<int64_t> SelfTimes() const;

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes one JSON object per span (with its self time). False on I/O
  /// failure.
  bool Write(const std::string& path) const;

 private:
  bool enabled_;
  int64_t origin_ns_;
  mutable std::mutex mu_;
  uint64_t next_id_ = 1;
  std::vector<Span> spans_;
};

}  // namespace ilqbench

#endif  // ILQBENCH_TRACE_H_
