#include "span.h"

#include <cstdio>
#include <ostream>
#include <stdexcept>

namespace perfbench {

double Tracer::now() const {
  return std::chrono::duration<double>(Clock::now() - epoch_).count();
}

int Tracer::open(std::string name) {
  Span s;
  s.name = std::move(name);
  s.parent = open_.empty() ? -1 : open_.back();
  s.request = request_;
  s.start_s = now();
  spans_.push_back(std::move(s));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::close(int id) {
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("tracer: spans must close innermost first");
  }
  spans_[static_cast<std::size_t>(id)].end_s = now();
  open_.pop_back();
}

void Tracer::count(int id, const std::string& name, double value) {
  auto& counters = spans_.at(static_cast<std::size_t>(id)).counters;
  for (auto& [key, total] : counters) {
    if (key == name) {
      total += value;
      return;
    }
  }
  counters.emplace_back(name, value);
}

namespace {

void put_double(std::ostream& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out << buf;
}

}  // namespace

void write_spans_json(std::ostream& out, const std::vector<Tracer>& tracers) {
  out << '[';
  bool first = true;
  int base = 0;
  for (const Tracer& t : tracers) {
    for (const Span& s : t.spans()) {
      out << (first ? "" : ",") << "\n{\"name\":\"" << s.name
          << "\",\"start_s\":";
      put_double(out, s.start_s);
      out << ",\"end_s\":";
      put_double(out, s.end_s);
      out << ",\"parent\":" << (s.parent < 0 ? t.root_parent() : base + s.parent)
          << ",\"request\":" << s.request << ",\"counters\":{";
      for (std::size_t i = 0; i < s.counters.size(); ++i) {
        out << (i ? "," : "") << '"' << s.counters[i].first << "\":";
        put_double(out, s.counters[i].second);
      }
      out << "}}";
      first = false;
    }
    base += static_cast<int>(t.spans().size());
  }
  out << "\n]";
}

}  // namespace perfbench
