#include "workload/trace.hpp"

#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/assert.hpp"
#include "util/json.hpp"
#include "util/json_parse.hpp"
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

[[noreturn]] void trace_line_error(const std::string& path, std::size_t line,
                                   const std::string& reason) {
  std::ostringstream os;
  os << "trace file '" << path << "' line " << line << ": " << reason;
  throw std::invalid_argument(os.str());
}

/// Extracts a required numeric field, rejecting non-finite values.
double trace_number(const std::string& path, std::size_t line,
                    const json::Value& record, const char* key) {
  const json::Value* field = record.find(key);
  if (field == nullptr) {
    trace_line_error(path, line, std::string("missing field \"") + key + "\"");
  }
  if (!field->is_number()) {
    trace_line_error(path, line,
                     std::string("field \"") + key + "\" is not a number");
  }
  if (!std::isfinite(field->number)) {
    trace_line_error(path, line,
                     std::string("field \"") + key + "\" is not finite");
  }
  return field->number;
}

NodeId trace_identity(const std::string& path, std::size_t line,
                      const json::Value& record, const char* key,
                      std::uint64_t nodes) {
  const double value = trace_number(path, line, record, key);
  if (value < 0.0 || value != std::floor(value) ||
      value >= static_cast<double>(nodes)) {
    std::ostringstream os;
    os << "field \"" << key << "\" must be an integer in [0, " << nodes
       << "), got " << fmt_shortest(value);
    trace_line_error(path, line, os.str());
  }
  return static_cast<NodeId>(value);
}

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
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("trace file '" + path + "': cannot open");
  }
  const std::uint64_t nodes = std::uint64_t{1} << d;
  PacketTrace trace;
  trace.dimension = d;
  // One line buffer and one parsed record for the whole file: once warm,
  // a line costs no allocation beyond its packet.
  std::string line;
  json::Value record;
  std::string error;
  std::size_t line_number = 0;
  double previous_time = 0.0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    if (!json::parse(line, &record, &error)) {
      trace_line_error(path, line_number, error);
    }
    if (!record.is_object()) {
      trace_line_error(path, line_number, "expected a JSON object");
    }
    const double time = trace_number(path, line_number, record, "t");
    if (time < 0.0) {
      trace_line_error(path, line_number, "time is negative");
    }
    if (time < previous_time) {
      std::ostringstream os;
      os << "times must be non-decreasing (" << fmt_shortest(time)
         << " after " << fmt_shortest(previous_time) << ")";
      trace_line_error(path, line_number, os.str());
    }
    previous_time = time;
    trace.packets.push_back(TracedPacket{
        time, trace_identity(path, line_number, record, "src", nodes),
        trace_identity(path, line_number, record, "dst", nodes)});
  }
  if (in.bad()) {
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
