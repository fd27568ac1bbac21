#include "tracer.h"

#include <fstream>
#include <numeric>

#include "bench_util.h"

namespace pkgbench {

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {}

int64_t Tracer::Now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int Tracer::Begin(const std::string& name) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.op = op_;
  span.start_ns = Now();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::End(int id) {
  spans_[id].end_ns = Now();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void Tracer::Count(const std::string& name, double value) {
  counters_.push_back({name, value, open_.empty() ? -1 : open_.back()});
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.seconds());
  }
  return out;
}

std::vector<double> Tracer::Counter(const std::string& name) const {
  std::vector<double> out;
  for (const CounterValue& c : counters_) {
    if (c.name == name) out.push_back(c.value);
  }
  return out;
}

std::map<std::string, double> Tracer::LayerSelfSeconds() const {
  std::vector<double> child_seconds(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_seconds[s.parent] += s.seconds();
  }
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out[s.name.substr(0, s.name.find('.'))] += s.seconds() - child_seconds[i];
  }
  return out;
}

void Tracer::Write(const std::string& path) const {
  std::ofstream out(path);
  for (const Span& s : spans_) {
    out << "{\"span\": \"" << s.name << "\", \"start_ns\": " << s.start_ns
        << ", \"end_ns\": " << s.end_ns << ", \"parent\": " << s.parent
        << ", \"op\": " << s.op << "}\n";
  }
  for (const CounterValue& c : counters_) {
    out << "{\"counter\": \"" << c.name << "\", \"value\": " << c.value
        << ", \"span\": " << c.span << "}\n";
  }
  if (!out) Die("cannot write " + path);
}

double Sum(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

double Mean(const std::vector<double>& values) {
  return values.empty() ? 0 : Sum(values) / static_cast<double>(values.size());
}

double MedianOrZero(const std::vector<double>& values) {
  return values.empty() ? 0 : Median(values);
}

}  // namespace pkgbench
