#include "workload/trace_replay.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "common/csv.hpp"

namespace pas::wl {

namespace {

[[noreturn]] void invalid(const std::string& name, std::size_t index, const std::string& what) {
  throw std::invalid_argument("Trace '" + name + "': point " + std::to_string(index) +
                              ": " + what);
}

std::string cell6(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

}  // namespace

Trace::Trace(std::vector<TracePoint> points, std::string name) : name_(std::move(name)) {
  if (points.empty())
    throw std::invalid_argument("Trace '" + name_ + "': no points (empty trace)");
  for (std::size_t i = 0; i < points.size(); ++i) {
    const TracePoint& p = points[i];
    if (p.t.us() < 0) invalid(name_, i, "negative timestamp");
    if (i > 0 && !(points[i - 1].t < p.t))
      invalid(name_, i, "timestamps must strictly increase (" +
                            common::to_string(p.t) + " after " +
                            common::to_string(points[i - 1].t) + ")");
    if (!(p.demand_pct >= 0.0) || !std::isfinite(p.demand_pct))
      invalid(name_, i, "demand_pct must be finite and non-negative");
    if (!(p.memory_mb >= 0.0) || !std::isfinite(p.memory_mb))
      invalid(name_, i, "memory_mb must be finite and non-negative");
    if (p.memory_mb > 0.0) has_memory_ = true;
    peak_demand_ = std::max(peak_demand_, p.demand_pct);
    peak_memory_ = std::max(peak_memory_, p.memory_mb);
  }
  if (points.back().demand_pct != 0.0)
    invalid(name_, points.size() - 1,
            "final demand must be 0 (the last point closes the trace)");
  points_ = std::make_shared<const std::vector<TracePoint>>(std::move(points));
  for (std::size_t i = 0; i < points_->size(); ++i) total_work_ += interval_work(i);
}

common::Work Trace::interval_work(std::size_t i) const {
  const std::vector<TracePoint>& points = *points_;
  if (i + 1 >= points.size()) return common::Work{};
  const double span_us = static_cast<double>((points[i + 1].t - points[i].t).us());
  return common::Work{points[i].demand_pct / 100.0 * span_us};
}

double Trace::demand_pct_at(common::SimTime t) const {
  double v = 0.0;
  for (const TracePoint& p : *points_) {
    if (p.t <= t)
      v = p.demand_pct;
    else
      break;
  }
  return v;
}

namespace {

Trace trace_from_table(const common::CsvTable& table) {
  const std::string& origin = table.origin();
  const auto t_col = table.column("t_sec");
  const auto d_col = table.column("demand_pct");
  if (!t_col || !d_col)
    throw std::runtime_error(origin +
                             ": trace header must name t_sec and demand_pct columns");
  const auto m_col = table.column("memory_mb");
  if (table.rows() == 0) throw std::runtime_error(origin + ": trace has no data rows");

  std::vector<TracePoint> points;
  points.reserve(table.rows());
  for (std::size_t r = 0; r < table.rows(); ++r) {
    TracePoint p;
    const double t_sec = table.number(r, *t_col);
    p.t = common::SimTime{std::llround(t_sec * 1e6)};
    p.demand_pct = table.number(r, *d_col);
    if (m_col) p.memory_mb = table.number(r, *m_col);
    if (!points.empty() && !(points.back().t < p.t))
      throw std::runtime_error(table.context(r) +
                               ": timestamps must strictly increase");
    points.push_back(p);
  }
  std::string name = origin;
  try {
    const std::filesystem::path path{origin};
    if (path.has_stem() && origin != "<memory>") name = path.stem().string();
  } catch (const std::exception&) {
    // keep the origin verbatim
  }
  try {
    return Trace{std::move(points), name};
  } catch (const std::invalid_argument& e) {
    // Re-anchor constructor diagnostics on the file for loader callers.
    throw std::runtime_error(origin + ": " + e.what());
  }
}

}  // namespace

Trace Trace::parse(std::string_view text, const std::string& origin) {
  return trace_from_table(common::CsvTable::parse(text, origin));
}

Trace Trace::load(const std::string& path) {
  return trace_from_table(common::CsvTable::load(path));
}

std::vector<Trace> Trace::load_dir(const std::string& dir) {
  std::vector<std::string> files;
  {
    std::error_code ec;
    std::filesystem::directory_iterator it{dir, ec};
    if (ec) throw std::runtime_error("Trace: cannot read directory " + dir);
    for (const auto& entry : it)
      if (entry.is_regular_file() && entry.path().extension() == ".csv")
        files.push_back(entry.path().string());
  }
  // Directory iteration order is filesystem-dependent; sorted filenames
  // give deterministic trace ids for the per-VM assignment.
  std::sort(files.begin(), files.end());
  std::vector<Trace> traces;
  traces.reserve(files.size());
  for (const std::string& f : files) traces.push_back(load(f));
  if (traces.empty())
    throw std::runtime_error("Trace: no .csv traces in directory " + dir);
  return traces;
}

std::string Trace::to_csv() const {
  std::string out = has_memory_ ? "t_sec,demand_pct,memory_mb" : "t_sec,demand_pct";
  out += '\n';
  for (const TracePoint& p : *points_) {
    out += cell6(static_cast<double>(p.t.us()) / 1e6);
    out += ',';
    out += cell6(p.demand_pct);
    if (has_memory_) {
      out += ',';
      out += cell6(p.memory_mb);
    }
    out += '\n';
  }
  return out;
}

void Trace::save(const std::string& path) const {
  std::ofstream out{path, std::ios::binary};
  if (!out) throw std::runtime_error("Trace: cannot write " + path);
  out << to_csv();
}

double quantize_demand_pct(double pct) { return std::round(pct * 1e6) / 1e6; }

TraceReplay::TraceReplay(Trace trace) : trace_(std::move(trace)) {
  work_end_idx_ = trace_.points().size() - 1;  // the final point delivers nothing
  while (work_end_idx_ > 0 && !(trace_.interval_work(work_end_idx_ - 1) > common::Work{}))
    --work_end_idx_;
}

void TraceReplay::advance_to(common::SimTime now) {
  const auto& points = trace_.points();
  while (next_idx_ < points.size() && points[next_idx_].t <= now) {
    const common::Work batch = trace_.interval_work(next_idx_);
    pending_ += batch;
    delivered_ += batch;
    ++next_idx_;
  }
}

common::Work TraceReplay::consume(common::SimTime /*now*/, common::Work budget) {
  const common::Work done = std::min(budget, pending_);
  pending_ -= done;
  consumed_ += done;
  return done;
}

common::SimTime TraceReplay::next_transition_time(common::SimTime /*now*/) {
  // Runnable-ness changes through advance_to alone only when a crossed
  // point delivers work; zero-demand points are skipped so an idle gap is
  // one jump. (While runnable, pending can only grow — but a conservative
  // early hint is always legal, and the host only consults the hint when
  // the VM idles.) The trace is immutable, so a zero-demand point the
  // cursor has passed stays zero-demand: the cursor never moves back, and
  // the scan costs O(points) over the whole replay, not per call.
  const auto& points = trace_.points();
  hint_idx_ = std::max(hint_idx_, next_idx_);
  while (hint_idx_ + 1 < points.size() && !(trace_.interval_work(hint_idx_) > common::Work{}))
    ++hint_idx_;
  return hint_idx_ + 1 < points.size() ? points[hint_idx_].t : kNoTransition;
}

}  // namespace pas::wl
