#include "spans.h"

#include <algorithm>
#include <cstdio>

#include "common.h"

namespace e2e {

int SpanLog::Begin(std::string name, int parent, int64_t request) {
  int64_t now = NowNanos();
  return Add(std::move(name), parent, request, now, now);
}

void SpanLog::End(int id) { spans_[static_cast<size_t>(id)].end_ns = NowNanos(); }

int SpanLog::Add(std::string name, int parent, int64_t request, int64_t start_ns,
                 int64_t end_ns) {
  spans_.push_back(Span{std::move(name), parent, request, start_ns, end_ns});
  return static_cast<int>(spans_.size()) - 1;
}

std::vector<int64_t> SpanLog::SelfNanos() const {
  // Children of one parent run one after another on this thread, so the
  // covered part is the sum of their durations clipped to the parent.
  std::vector<int64_t> covered(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent < 0) continue;
    const Span& p = spans_[static_cast<size_t>(s.parent)];
    int64_t start = std::max(s.start_ns, p.start_ns);
    int64_t end = std::min(s.end_ns, p.end_ns);
    if (end > start) covered[static_cast<size_t>(s.parent)] += end - start;
  }
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = std::max<int64_t>(0, spans_[i].end_ns - spans_[i].start_ns - covered[i]);
  }
  return self;
}

std::map<std::string, std::vector<double>> SpanLog::SelfMicrosByName() const {
  std::vector<int64_t> self = SelfNanos();
  std::map<std::string, std::vector<double>> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].name].push_back(static_cast<double>(self[i]) / 1e3);
  }
  return out;
}

bool SpanLog::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::vector<int64_t> self = SelfNanos();
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"parent\":%d,\"request\":%lld,\"name\":\"%s\","
                 "\"start_ns\":%lld,\"end_ns\":%lld,\"self_ns\":%lld}\n",
                 i, s.parent, static_cast<long long>(s.request), s.name.c_str(),
                 static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns),
                 static_cast<long long>(self[i]));
  }
  return std::fclose(f) == 0;
}

}  // namespace e2e
