// Wall-clock spans recorded by the benchmark around its own calls into the
// library's layers.
//
// Two kinds of span share one nesting stack:
//  * Scope keeps every instance (name, start, end, parent) for the span
//    file written once when the benchmark ends. Use it for calls that
//    happen a few times per run: a fleet run, a sweep point, a replay.
//  * Hot only adds into its name's totals. Use it for calls made once per
//    simulated cycle (core.tick, memory.tick, ...), where keeping every
//    instance would cost more memory than the run itself.
//
// Both feed the per-name totals: span time, the part of it covered by
// child spans, and the call count, so a layer's self time is its span
// time minus its children's.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace perfbench {

class Spans {
 public:
  using Clock = std::chrono::steady_clock;

  struct Total {
    std::string name;
    double span_s = 0.0;   ///< summed duration of every instance
    double child_s = 0.0;  ///< part of span_s covered by child spans
    std::uint64_t count = 0;
    [[nodiscard]] double self_s() const { return span_s - child_s; }
  };

  struct Instance {
    int name = 0;     ///< index into totals()
    int parent = -1;  ///< index into instances(), -1 at the top level
    double start_s = 0.0;
    double end_s = 0.0;
  };

  Spans();
  Spans(const Spans&) = delete;
  Spans& operator=(const Spans&) = delete;

  /// Index of `name` in totals(), created on first use. Hot call sites
  /// resolve it once, outside their loop.
  int id(const std::string& name);

  void open(int name, bool keep_instance);
  void close();
  /// Close a span with an explicit end time (used by tests to build
  /// exact durations).
  void close_at(Clock::time_point end);
  void open_at(int name, bool keep_instance, Clock::time_point start);

  [[nodiscard]] const std::vector<Total>& totals() const { return totals_; }
  [[nodiscard]] const std::vector<Instance>& instances() const { return instances_; }
  [[nodiscard]] const Total& total(const std::string& name) const;
  [[nodiscard]] bool idle() const { return stack_.empty(); }

  /// Chrome trace-event JSON ("X" events, microseconds from the first
  /// span), each kept instance with its parent's index in args, followed
  /// by one counter event per name carrying the totals.
  void write_chrome_trace(std::ostream& os) const;

  /// RAII span that keeps its instance.
  class Scope {
   public:
    Scope(Spans* spans, const std::string& name) : spans_(spans) {
      if (spans_ != nullptr) spans_->open(spans_->id(name), true);
    }
    ~Scope() {
      if (spans_ != nullptr) spans_->close();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans* spans_;
  };

  /// RAII span that only adds into its name's totals.
  class Hot {
   public:
    Hot(Spans* spans, int name) : spans_(spans) {
      if (spans_ != nullptr) spans_->open(name, false);
    }
    ~Hot() {
      if (spans_ != nullptr) spans_->close();
    }
    Hot(const Hot&) = delete;
    Hot& operator=(const Hot&) = delete;

   private:
    Spans* spans_;
  };

 private:
  struct Frame {
    int name;
    int instance;  ///< -1 when the instance is not kept
    Clock::time_point start;
    double child_s;
  };

  Clock::time_point origin_;
  std::vector<Total> totals_;
  std::vector<Instance> instances_;
  std::vector<Frame> stack_;
};

}  // namespace perfbench
