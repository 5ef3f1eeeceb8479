#include "obs/export.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <ostream>
#include <sstream>
#include <utility>
#include <vector>

#include "support/table.hpp"

namespace sttsv::obs {

namespace {

/// Chrome wants small integer thread ids; give the driver track 0 and
/// rank p the id p + 1 so ranks sort naturally in the UI.
std::uint64_t track_of(std::size_t rank) {
  return rank == kDriverTrack ? 0 : static_cast<std::uint64_t>(rank) + 1;
}

std::string track_name(std::size_t rank) {
  return rank == kDriverTrack ? "driver" : "rank " + std::to_string(rank);
}

const char* channel_of(Category c) {
  if (c == Category::kRetry) return "overhead";
  if (c == Category::kOneSided) return "onesided";
  return "goodput";
}

double to_us(std::uint64_t ns) { return static_cast<double>(ns) / 1e3; }

}  // namespace

void write_chrome_trace(std::ostream& out,
                        const std::vector<SpanRecord>& spans) {
  // High precision: timestamps in microseconds can exceed 1e7 and the
  // sub-microsecond fraction carries the event ordering.
  repro::JsonWriter w(out, 15);
  w.begin_object();
  w.field("displayTimeUnit", "ms");
  w.begin_array("traceEvents");

  // Name each track once, ascending, so the viewer orders them.
  std::map<std::uint64_t, std::string> tracks;
  for (const SpanRecord& s : spans) tracks[track_of(s.rank)] = track_name(s.rank);
  for (const auto& [tid, name] : tracks) {
    w.begin_object();
    w.field("name", "thread_name");
    w.field("ph", "M");
    w.field("pid", std::uint64_t{0});
    w.field("tid", tid);
    w.begin_object("args");
    w.field("name", name);
    w.end_object();
    w.end_object();
  }

  for (const SpanRecord& s : spans) {
    w.begin_object();
    w.field("name", s.name);
    w.field("cat", category_name(s.category));
    w.field("ph", "X");
    w.field("pid", std::uint64_t{0});
    w.field("tid", track_of(s.rank));
    w.field("ts", to_us(s.begin_ns));
    w.field("dur", to_us(s.end_ns - s.begin_ns));
    w.begin_object("args");
    w.field("arg", s.arg);
    w.field("channel", channel_of(s.category));
    w.field("depth", static_cast<std::uint64_t>(s.depth));
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

void write_metrics_json(repro::JsonWriter& w, const MetricsRegistry& registry,
                        const char* key) {
  w.begin_object(key);
  w.begin_object("counters");
  for (const auto& [name, value] : registry.counters()) {
    w.field(name.c_str(), value);
  }
  w.end_object();
  w.begin_object("gauges");
  for (const auto& [name, value] : registry.gauges()) {
    w.field(name.c_str(), value);
  }
  w.end_object();
  w.begin_object("histograms");
  for (const auto& [name, h] : registry.histograms()) {
    w.begin_object(name.c_str());
    w.field("count", h.count);
    w.field("sum", h.sum);
    w.field("min", h.min);
    w.field("max", h.max);
    w.field("mean", h.mean());
    w.field("p50", h.percentile(0.50));
    w.field("p90", h.percentile(0.90));
    w.field("p99", h.percentile(0.99));
    w.end_object();
  }
  w.end_object();
  w.end_object();
}

std::string rank_summary(const std::vector<SpanRecord>& spans) {
  if (spans.empty()) return "";

  struct Cell {
    std::size_t count = 0;
    std::uint64_t total_ns = 0;
  };
  // (rank, category) -> aggregate; map keeps ranks/categories ordered.
  std::map<std::size_t, std::map<Category, Cell>> by_rank;
  std::map<std::size_t, std::vector<std::pair<std::uint64_t, std::uint64_t>>>
      intervals;
  for (const SpanRecord& s : spans) {
    Cell& cell = by_rank[s.rank][s.category];
    ++cell.count;
    cell.total_ns += s.end_ns - s.begin_ns;
    intervals[s.rank].emplace_back(s.begin_ns, s.end_ns);
  }
  // Busy time is the union of the track's spans: nesting depth is per
  // recording thread, so a rank run inline on the driver thread sits
  // below the driver's spans and has no depth-0 span of its own.
  std::map<std::size_t, std::uint64_t> busy_ns;
  for (auto& [rank, iv] : intervals) {
    std::sort(iv.begin(), iv.end());
    std::uint64_t busy = 0;
    std::uint64_t covered = 0;  // end of the union so far
    for (const auto& [begin, end] : iv) {
      const std::uint64_t from = std::max(begin, covered);
      if (end > from) busy += end - from;
      covered = std::max(covered, end);
    }
    busy_ns[rank] = busy;
  }

  TextTable table({"track", "category", "spans", "total ms", "busy ms"},
                  {Align::kLeft, Align::kLeft, Align::kRight, Align::kRight,
                   Align::kRight});
  for (const auto& [rank, cells] : by_rank) {
    bool first = true;
    for (const auto& [cat, cell] : cells) {
      table.add_row({first ? track_name(rank) : "", category_name(cat),
                     std::to_string(cell.count),
                     format_double(static_cast<double>(cell.total_ns) / 1e6, 3),
                     first ? format_double(
                                 static_cast<double>(busy_ns[rank]) / 1e6, 3)
                           : ""});
      first = false;
    }
  }
  std::ostringstream os;
  os << table;
  return os.str();
}

}  // namespace sttsv::obs
