#include "spans.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

std::uint32_t SpanLog::intern(const std::string& name) {
  for (std::size_t i = 0; i < names_.size(); ++i)
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  names_.push_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::int32_t SpanLog::add(std::uint32_t name, std::uint64_t trace,
                          double start, double end, std::int32_t parent) {
  spans_.push_back(Span{name, parent, trace, start, end});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

double self_time(double start, double end,
                 std::vector<std::pair<double, double>> children) {
  std::sort(children.begin(), children.end());
  double covered = 0.0;
  double cursor = start;
  for (const auto& [s, e] : children) {
    const double lo = std::max(s, cursor);
    const double hi = std::min(e, end);
    if (hi > lo) {
      covered += hi - lo;
      cursor = hi;
    }
  }
  return std::max(0.0, (end - start) - covered);
}

std::map<std::string, std::vector<double>> SpanLog::self_times() const {
  // Children grouped under their parent: CSR over parent indices.
  std::vector<std::size_t> first(spans_.size() + 1, 0);
  for (const Span& s : spans_)
    if (s.parent >= 0) ++first[static_cast<std::size_t>(s.parent) + 1];
  for (std::size_t i = 0; i < spans_.size(); ++i) first[i + 1] += first[i];
  std::vector<std::size_t> fill(first.begin(), first.end() - 1);
  std::vector<std::size_t> kids(first.back());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (spans_[i].parent >= 0)
      kids[fill[static_cast<std::size_t>(spans_[i].parent)]++] = i;

  std::map<std::string, std::vector<double>> out;
  std::vector<std::pair<double, double>> children;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    children.clear();
    for (std::size_t k = first[i]; k < first[i + 1]; ++k)
      children.emplace_back(spans_[kids[k]].start, spans_[kids[k]].end);
    out[names_[spans_[i].name]].push_back(
        self_time(spans_[i].start, spans_[i].end, children));
  }
  return out;
}

void SpanLog::write_tsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) throw std::runtime_error("cannot write span log " + path);
  std::fprintf(f, "name\ttrace\tparent\tstart_ns\tend_ns\n");
  for (const Span& s : spans_)
    std::fprintf(f, "%s\t%" PRIu64 "\t%d\t%.0f\t%.0f\n",
                 names_[s.name].c_str(), s.trace, s.parent, s.start * 1e9,
                 s.end * 1e9);
  if (std::fclose(f) != 0)
    throw std::runtime_error("cannot write span log " + path);
}

}  // namespace perfbench
