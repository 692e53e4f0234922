#include "trace.h"

#include <algorithm>
#include <cstdio>

#include "common.h"

namespace ilqbench {

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_ns_(NowNs()) {
  if (enabled_) spans_.reserve(1 << 20);
}

uint64_t Tracer::NewId() {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void Tracer::Record(uint64_t id, const char* name, int64_t start_ns,
                    int64_t end_ns, uint64_t parent, uint64_t request) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{id, parent, request, name, start_ns, end_ns});
}

Tracer::Scope::Scope(Tracer* tracer, const char* name, uint64_t parent,
                     uint64_t request)
    : tracer_(tracer),
      name_(name),
      parent_(parent),
      request_(request),
      id_(tracer->NewId()),
      start_ns_(tracer->on() ? NowNs() : 0) {}

Tracer::Scope::~Scope() {
  if (tracer_->on()) {
    tracer_->Record(id_, name_, start_ns_, NowNs(), parent_, request_);
  }
}

std::unordered_map<uint64_t, double> Tracer::UsByRequest(
    const char* name) const {
  std::unordered_map<uint64_t, double> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const Span& s : spans_) {
    if (std::string_view(s.name) == name) {
      out[s.request] += NsToUs(s.end_ns - s.start_ns);
    }
  }
  return out;
}

std::vector<int64_t> Tracer::SelfTimes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_map<uint64_t, size_t> index;
  for (size_t i = 0; i < spans_.size(); ++i) index[spans_[i].id] = i;
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans_.size());
  for (const Span& s : spans_) {
    auto it = index.find(s.parent);
    if (s.parent != 0 && it != index.end()) {
      children[it->second].push_back({s.start_ns, s.end_ns});
    }
  }
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent.
    int64_t covered = 0;
    int64_t cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (auto [lo, hi] : kids) {
      lo = std::max(lo, s.start_ns);
      hi = std::min(hi, s.end_ns);
      if (hi <= lo) continue;
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
      } else {
        if (open) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
        open = true;
      }
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

bool Tracer::Write(const std::string& path) const {
  const std::vector<int64_t> self = SelfTimes();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %llu, \"parent\": %llu, \"request\": %llu, "
                 "\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld, "
                 "\"self_ns\": %lld}\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.name,
                 static_cast<long long>(s.start_ns - origin_ns_),
                 static_cast<long long>(s.end_ns - origin_ns_),
                 static_cast<long long>(self[i]));
  }
  return std::fclose(f) == 0;
}

}  // namespace ilqbench
