#include "workload/trace.hpp"

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <system_error>

#include "util/assert.hpp"
#include "util/json.hpp"
#include "util/json_parse.hpp"
#include "util/line_reader.hpp"
#include "workload/traffic.hpp"

namespace routesim {

PacketTrace generate_hypercube_trace(int d, double lambda,
                                     const DestinationDistribution& dist,
                                     double horizon, std::uint64_t seed) {
  RS_EXPECTS(d >= 1 && d <= 26);
  RS_EXPECTS(lambda > 0.0);
  RS_EXPECTS(horizon > 0.0);
  RS_EXPECTS(dist.dimension() == d);

  PacketTrace trace;
  trace.dimension = d;
  trace.rate_per_node = lambda;

  const auto nodes = static_cast<std::uint32_t>(std::uint64_t{1} << d);
  MergedPoissonSource source(nodes, lambda, Rng(derive_stream(seed, 0x7A11)));
  Rng dest_rng(derive_stream(seed, 0xDE57));

  for (;;) {
    const PacketBirth birth = source.next();
    if (birth.time > horizon) break;
    trace.packets.push_back(TracedPacket{
        birth.time, birth.origin, dist.sample(dest_rng, birth.origin)});
  }
  return trace;
}

PacketTrace generate_fixed_destination_trace(int d, double lambda,
                                             const std::vector<NodeId>& table,
                                             double horizon,
                                             std::uint64_t seed) {
  RS_EXPECTS(d >= 1 && d <= 26);
  RS_EXPECTS(lambda > 0.0);
  RS_EXPECTS(horizon > 0.0);
  const auto nodes = static_cast<std::uint32_t>(std::uint64_t{1} << d);
  RS_EXPECTS(table.size() == nodes);

  PacketTrace trace;
  trace.dimension = d;
  trace.rate_per_node = lambda;
  MergedPoissonSource source(nodes, lambda, Rng(derive_stream(seed, 0x7A11)));
  for (;;) {
    const PacketBirth birth = source.next();
    if (birth.time > horizon) break;
    trace.packets.push_back(
        TracedPacket{birth.time, birth.origin, table[birth.origin]});
  }
  return trace;
}

namespace {

/// Turns the lines of one trace file into packets.  A line in the layout
/// save_trace_jsonl writes, {"t":N,"src":N,"dst":N}, is read in place;
/// any other line goes through json::parse.  Both readers hand their
/// numbers to the same checks, in the order they report, so a record
/// loads to the same packet or fails with the same message whichever
/// reader took it.
class TraceLineReader {
 public:
  TraceLineReader(const std::string& path, int d, PacketTrace* trace)
      : path_(path), nodes_(std::uint64_t{1} << d), trace_(trace) {}

  /// Reads the next line (as std::getline splits it, without its '\n').
  void line(const char* first, const char* last) {
    ++line_number_;
    if (first == last) return;
    double fields[3];
    if (read_canonical(first, last, fields)) {
      trace_->packets.push_back(TracedPacket{time(fields[0]),
                                             identity("src", fields[1]),
                                             identity("dst", fields[2])});
      return;
    }
    text_.assign(first, last);
    if (!json::parse(text_, &record_, &error_)) fail(error_);
    if (!record_.is_object()) fail("expected a JSON object");
    trace_->packets.push_back(TracedPacket{
        time(number_field("t")), identity("src", number_field("src")),
        identity("dst", number_field("dst"))});
  }

 private:
  /// Matches the canonical layout's bytes exactly, numbers read by the
  /// JSON reader's own number routine; false on anything else.
  static bool read_canonical(const char* p, const char* last,
                             double (&fields)[3]) {
    return skip(p, last, "{\"t\":") && number(p, last, &fields[0]) &&
           skip(p, last, ",\"src\":") && number(p, last, &fields[1]) &&
           skip(p, last, ",\"dst\":") && number(p, last, &fields[2]) &&
           skip(p, last, "}") && p == last;
  }

  template <std::size_t N>
  static bool skip(const char*& p, const char* last, const char (&literal)[N]) {
    if (static_cast<std::size_t>(last - p) < N - 1 ||
        std::memcmp(p, literal, N - 1) != 0) {
      return false;
    }
    p += N - 1;
    return true;
  }

  static bool number(const char*& p, const char* last, double* out) {
    const json::NumberScan scan = json::scan_number(p, last);
    *out = scan.value;
    p = scan.end;
    return scan.error == nullptr;
  }

  [[noreturn]] void fail(const std::string& reason) const {
    std::ostringstream os;
    os << "trace file '" << path_ << "' line " << line_number_ << ": " << reason;
    throw std::invalid_argument(os.str());
  }

  double number_field(const char* key) const {
    const json::Value* field = record_.find(key);
    if (field == nullptr) {
      fail(std::string("missing field \"") + key + "\"");
    }
    if (!field->is_number()) {
      fail(std::string("field \"") + key + "\" is not a number");
    }
    return field->number;
  }

  void require_finite(const char* key, double value) const {
    if (!std::isfinite(value)) {
      fail(std::string("field \"") + key + "\" is not finite");
    }
  }

  double time(double value) {
    require_finite("t", value);
    if (value < 0.0) fail("time is negative");
    if (value < previous_time_) {
      std::ostringstream os;
      os << "times must be non-decreasing (" << fmt_shortest(value)
         << " after " << fmt_shortest(previous_time_) << ")";
      fail(os.str());
    }
    previous_time_ = value;
    return value;
  }

  NodeId identity(const char* key, double value) const {
    require_finite(key, value);
    if (value < 0.0 || value != std::floor(value) ||
        value >= static_cast<double>(nodes_)) {
      std::ostringstream os;
      os << "field \"" << key << "\" must be an integer in [0, " << nodes_
         << "), got " << fmt_shortest(value);
      fail(os.str());
    }
    return static_cast<NodeId>(value);
  }

  const std::string& path_;
  const std::uint64_t nodes_;
  PacketTrace* const trace_;
  std::size_t line_number_ = 0;
  double previous_time_ = 0.0;
  // The JSON reader's line, record and error, reused across lines.
  std::string text_;
  json::Value record_;
  std::string error_;
};

}  // namespace

void save_trace_jsonl(const PacketTrace& trace, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    throw std::runtime_error("trace file '" + path + "': cannot open for writing");
  }
  for (const TracedPacket& packet : trace.packets) {
    out << "{\"t\":" << fmt_shortest(packet.time)
        << ",\"src\":" << packet.origin << ",\"dst\":" << packet.destination
        << "}\n";
  }
  out.flush();
  if (!out) {
    throw std::runtime_error("trace file '" + path + "': write failed");
  }
}

PacketTrace load_trace_jsonl(const std::string& path, int d) {
  RS_EXPECTS(d >= 1 && d <= 26);
  const auto file = open_for_reading(path);
  if (!file) {
    throw std::runtime_error("trace file '" + path + "': cannot open");
  }
  PacketTrace trace;
  trace.dimension = d;
  // The shortest record, {"t":0,"src":0,"dst":0} and its newline, is 24
  // bytes, so this bound never reallocates; the pages past the last
  // packet are never touched.
  std::error_code size_error;
  const std::uintmax_t bytes = std::filesystem::file_size(path, size_error);
  if (!size_error) trace.packets.reserve(bytes / 24 + 1);

  TraceLineReader reader(path, d, &trace);
  if (!for_each_line(file.get(), [&reader](const char* first, const char* last,
                                           bool) { reader.line(first, last); })) {
    throw std::runtime_error("trace file '" + path + "': read failed");
  }
  return trace;
}

std::uint64_t trace_file_fingerprint(const std::string& path) noexcept {
  std::ifstream in(path, std::ios::binary);
  if (!in) return 0;
  std::uint64_t hash = 0xcbf29ce484222325ull;  // FNV-1a 64 offset basis
  char buffer[4096];
  while (in.read(buffer, sizeof buffer) || in.gcount() > 0) {
    const std::streamsize got = in.gcount();
    for (std::streamsize i = 0; i < got; ++i) {
      hash ^= static_cast<unsigned char>(buffer[i]);
      hash *= 0x100000001b3ull;  // FNV prime
    }
    if (got < static_cast<std::streamsize>(sizeof buffer)) break;
  }
  return hash;
}

}  // namespace routesim
