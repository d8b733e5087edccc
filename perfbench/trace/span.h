// In-memory span recorder for the benchmark's traced runs.
//
// A span marks one call into a layer's public function: its name is
// "<layer>.<function>" (layers are the src/ module names), it has a start
// and end on a clock shared by every tracer of the process, the span that
// was open when it began as its parent, and the request id of the run it
// belongs to.  Counters ride on the span that produced them, so work counts
// are read at the same boundary as the time.
//
// One Tracer is owned by one thread: parallel runs each record into their
// own tracer and the caller merges them after joining.  Nothing is written
// until the end of the run, so recording costs one clock read per boundary.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  double start_s = 0.0;  ///< seconds since the tracer epoch
  double end_s = 0.0;
  int parent = -1;  ///< index of the enclosing span in the same tracer
  std::uint64_t request = 0;
  std::vector<std::pair<std::string, double>> counters;
};

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  Tracer(Clock::time_point epoch, std::uint64_t request)
      : epoch_(epoch), request_(request) {}

  /// Opens a span nested in the innermost open one; returns its index.
  int open(std::string name);
  /// Closes span `id`, which must be the innermost open span.
  void close(int id);
  /// Adds `value` to counter `name` of span `id`.
  void count(int id, const std::string& name, double value);

  const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Parent of this tracer's outermost spans, as an index into the first
  /// tracer written by write_spans_json: a parallel run's spans then nest
  /// under the span that waited for it.
  void set_root_parent(int index) noexcept { root_parent_ = index; }
  int root_parent() const noexcept { return root_parent_; }

  /// RAII span: opens on construction, closes on destruction.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name)
        : tracer_(tracer), id_(tracer.open(std::move(name))) {}
    ~Scope() { tracer_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    void count(const std::string& name, double value) {
      tracer_.count(id_, name, value);
    }

   private:
    Tracer& tracer_;
    int id_;
  };

 private:
  double now() const;

  Clock::time_point epoch_;
  std::uint64_t request_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  int root_parent_ = -1;
};

/// Writes `tracers`' spans as one JSON array; parents are rewritten to
/// indices into that array.  The first tracer's indices are unchanged.
void write_spans_json(std::ostream& out, const std::vector<Tracer>& tracers);

}  // namespace perfbench
