#include "spans.hpp"

#include <ostream>
#include <stdexcept>

namespace perfbench {

namespace {
double seconds_between(Spans::Clock::time_point a, Spans::Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
}  // namespace

Spans::Spans() : origin_(Clock::now()) {}

int Spans::id(const std::string& name) {
  for (std::size_t i = 0; i < totals_.size(); ++i) {
    if (totals_[i].name == name) return static_cast<int>(i);
  }
  totals_.push_back(Total{name});
  return static_cast<int>(totals_.size() - 1);
}

void Spans::open(int name, bool keep_instance) { open_at(name, keep_instance, Clock::now()); }

void Spans::open_at(int name, bool keep_instance, Clock::time_point start) {
  int instance = -1;
  if (keep_instance) {
    int parent = -1;
    for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
      if (it->instance >= 0) {
        parent = it->instance;
        break;
      }
    }
    instances_.push_back(Instance{name, parent, seconds_between(origin_, start), 0.0});
    instance = static_cast<int>(instances_.size() - 1);
  }
  stack_.push_back(Frame{name, instance, start, 0.0});
}

void Spans::close() { close_at(Clock::now()); }

void Spans::close_at(Clock::time_point end) {
  if (stack_.empty()) throw std::logic_error("Spans::close without an open span");
  const Frame frame = stack_.back();
  stack_.pop_back();
  const double duration = seconds_between(frame.start, end);
  Total& t = totals_[static_cast<std::size_t>(frame.name)];
  t.span_s += duration;
  t.child_s += frame.child_s;
  ++t.count;
  if (frame.instance >= 0) {
    instances_[static_cast<std::size_t>(frame.instance)].end_s = seconds_between(origin_, end);
  }
  if (!stack_.empty()) stack_.back().child_s += duration;
}

const Spans::Total& Spans::total(const std::string& name) const {
  static const Total kNone{};
  for (const auto& t : totals_) {
    if (t.name == name) return t;
  }
  return kNone;
}

void Spans::write_chrome_trace(std::ostream& os) const {
  os << "{\"traceEvents\":[";
  const char* sep = "\n";
  for (std::size_t i = 0; i < instances_.size(); ++i) {
    const Instance& in = instances_[i];
    os << sep << "{\"name\":\"" << totals_[static_cast<std::size_t>(in.name)].name
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << in.start_s * 1e6
       << ",\"dur\":" << (in.end_s - in.start_s) * 1e6 << ",\"args\":{\"id\":" << i
       << ",\"parent\":" << in.parent << "}}";
    sep = ",\n";
  }
  for (const auto& t : totals_) {
    os << sep << "{\"name\":\"total:" << t.name
       << "\",\"ph\":\"C\",\"pid\":1,\"ts\":0,\"args\":{\"span_s\":" << t.span_s
       << ",\"self_s\":" << t.self_s() << ",\"count\":" << t.count << "}}";
    sep = ",\n";
  }
  os << "\n]}\n";
}

}  // namespace perfbench
