#include "obs/sinks.hpp"

#include <cstring>
#include <fstream>
#include <sstream>

#include "support/require.hpp"

namespace bzc::obs {

namespace detail {

/// Minimal JSON string escaping (names are static identifiers; scenario
/// names come from bench code and could in principle carry anything).
std::string jsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace detail

using detail::jsonEscape;

// --- JsonlTraceSink ---------------------------------------------------------

JsonlTraceSink::JsonlTraceSink(const std::string& path)
    : owned_(std::make_unique<std::ofstream>(path, std::ios::trunc)), os_(owned_.get()) {
  BZC_REQUIRE(static_cast<std::ofstream&>(*owned_).is_open(),
              "BZC_TRACE: cannot open " + path);
}

JsonlTraceSink::JsonlTraceSink(std::ostream& os) : os_(&os) {}

JsonlTraceSink::~JsonlTraceSink() { os_->flush(); }

void JsonlTraceSink::writeTrace(std::ostream& os, const TrialTrace& trace) {
  os << "{\"type\":\"trial\",\"scenario\":\"" << jsonEscape(trace.scenario)
     << "\",\"trial\":" << trace.trial << "}\n";
  std::uint64_t rounds = 0, messages = 0, bits = 0;
  for (const TraceEvent& e : trace.events) {
    switch (e.kind) {
      case EventKind::Round: {
        const RoundRecord& r = e.rd;
        rounds += 1;
        messages += r.messages;
        bits += r.bits;
        os << "{\"type\":\"round\",\"round\":" << r.round << ",\"sends\":" << r.sends
           << ",\"touched\":" << r.touched << ",\"messages\":" << r.messages
           << ",\"bits\":" << r.bits << ",\"shards\":" << static_cast<unsigned>(r.shards)
           << ",\"idle\":" << static_cast<unsigned>(r.idle) << ",\"lane\":" << e.lane;
        if (r.shards > 1) {
          os << ",\"lanes\":[";
          for (unsigned s = 0; s < r.shards; ++s) {
            if (s > 0) os << ',';
            os << r.laneSends[s];
          }
          os << ']';
        }
        os << ",\"ts\":" << e.tsNs << ",\"recvNs\":" << r.recvNs << ",\"mergeNs\":" << r.mergeNs
           << ",\"scatterNs\":" << r.scatterNs << "}\n";
        break;
      }
      case EventKind::Span:
        os << "{\"type\":\"span\",\"name\":\"" << e.name << "\",\"round\":" << e.round
           << ",\"lane\":" << e.lane << ",\"ts\":" << e.tsNs << ",\"dur\":" << e.durNs << "}\n";
        break;
      case EventKind::Counter:
        os << "{\"type\":\"counter\",\"name\":\"" << e.name << "\",\"round\":" << e.round
           << ",\"lane\":" << e.lane << ",\"value\":" << e.value << ",\"ts\":" << e.tsNs
           << "}\n";
        break;
      case EventKind::Mark:
        os << "{\"type\":\"mark\",\"name\":\"" << e.name << "\",\"round\":" << e.round
           << ",\"lane\":" << e.lane << ",\"value\":" << e.value << ",\"ts\":" << e.tsNs
           << "}\n";
        break;
    }
  }
  // Totals let the validator reconcile without re-walking, and let tests pin
  // trace-vs-MessageMeter identity from the export alone.
  os << "{\"type\":\"end\",\"scenario\":\"" << jsonEscape(trace.scenario)
     << "\",\"trial\":" << trace.trial << ",\"events\":" << trace.events.size()
     << ",\"rounds\":" << rounds << ",\"messages\":" << messages << ",\"bits\":" << bits
     << "}\n";
}

void JsonlTraceSink::consume(const TrialTrace& trace) {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream os;
  os.precision(12);
  writeTrace(os, trace);
  *os_ << os.str();
  os_->flush();
}

// --- ChromeTraceSink --------------------------------------------------------

ChromeTraceSink::ChromeTraceSink(const std::string& path) : path_(path) {}

ChromeTraceSink::~ChromeTraceSink() {
  std::ofstream os(path_, std::ios::trunc);
  os << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < lines_.size(); ++i) {
    if (i > 0) os << ',';
    os << '\n' << lines_[i];
  }
  os << "\n]}\n";
}

void ChromeTraceSink::consume(const TrialTrace& trace) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::uint32_t pid = nextPid_++;
  const auto us = [](std::int64_t ns) { return static_cast<double>(ns) / 1000.0; };
  {
    std::ostringstream os;
    os << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" << pid
       << ",\"tid\":0,\"args\":{\"name\":\"" << jsonEscape(trace.scenario) << "#"
       << trace.trial << "\"}}";
    lines_.push_back(os.str());
  }
  for (const TraceEvent& e : trace.events) {
    std::ostringstream os;
    os.precision(12);
    switch (e.kind) {
      case EventKind::Round:
        // Two counter tracks per lane: message and bit spend per round.
        os << "{\"ph\":\"C\",\"name\":\"engine.traffic\",\"pid\":" << pid
           << ",\"tid\":" << e.lane << ",\"ts\":" << us(e.tsNs)
           << ",\"args\":{\"messages\":" << e.rd.messages << ",\"bits\":" << e.rd.bits
           << ",\"touched\":" << e.rd.touched << "}}";
        break;
      case EventKind::Span:
        os << "{\"ph\":\"X\",\"name\":\"" << e.name << "\",\"pid\":" << pid
           << ",\"tid\":" << e.lane << ",\"ts\":" << us(e.tsNs) << ",\"dur\":" << us(e.durNs)
           << ",\"args\":{\"round\":" << e.round << "}}";
        break;
      case EventKind::Counter:
        os << "{\"ph\":\"C\",\"name\":\"" << e.name << "\",\"pid\":" << pid
           << ",\"tid\":" << e.lane << ",\"ts\":" << us(e.tsNs) << ",\"args\":{\"value\":"
           << e.value << "}}";
        break;
      case EventKind::Mark:
        // Walk-token lifecycle marks additionally become flow events
        // ("s"/"f" pairs keyed by the token's provenance id, DESIGN.md §14):
        // chrome://tracing draws an arrow from each token's launch to its
        // answer/drop, across rounds and lanes. The instant is kept too so
        // the marks stay visible on the timeline.
        if (std::strcmp(e.name, "walk.launch") == 0) {
          os << "{\"ph\":\"s\",\"cat\":\"walk\",\"name\":\"walk\",\"id\":"
             << static_cast<std::uint64_t>(e.value) << ",\"pid\":" << pid
             << ",\"tid\":" << e.lane << ",\"ts\":" << us(e.tsNs) << "}";
          lines_.push_back(os.str());
          os.str("");
        } else if (std::strcmp(e.name, "walk.answer") == 0 ||
                   std::strcmp(e.name, "walk.drop") == 0) {
          os << "{\"ph\":\"f\",\"bp\":\"e\",\"cat\":\"walk\",\"name\":\"walk\",\"id\":"
             << static_cast<std::uint64_t>(e.value) << ",\"pid\":" << pid
             << ",\"tid\":" << e.lane << ",\"ts\":" << us(e.tsNs) << "}";
          lines_.push_back(os.str());
          os.str("");
        }
        os << "{\"ph\":\"i\",\"name\":\"" << e.name << "\",\"pid\":" << pid
           << ",\"tid\":" << e.lane << ",\"ts\":" << us(e.tsNs) << ",\"s\":\"t\"}";
        break;
    }
    lines_.push_back(os.str());
  }
}

// --- AttribJsonlSink --------------------------------------------------------

AttribJsonlSink::AttribJsonlSink(const std::string& path)
    : owned_(std::make_unique<std::ofstream>(path, std::ios::trunc)), os_(owned_.get()) {
  BZC_REQUIRE(static_cast<std::ofstream&>(*owned_).is_open(),
              "BZC_ATTRIB: cannot open " + path);
}

AttribJsonlSink::AttribJsonlSink(std::ostream& os) : os_(&os) {}

AttribJsonlSink::~AttribJsonlSink() { os_->flush(); }

void AttribJsonlSink::writeBlame(std::ostream& os, const TrialTrace& trace) {
  const BlameGraph& g = trace.blame;
  // Node-id fields use -1 for "none" (kBlameNone): unattributed cause /
  // graph-wide victim / no subset mapping.
  const auto id = [](std::uint64_t v) -> std::int64_t {
    return v == kBlameNone ? -1 : static_cast<std::int64_t>(v);
  };
  os << "{\"type\":\"blame\",\"scenario\":\"" << jsonEscape(trace.scenario)
     << "\",\"trial\":" << trace.trial << ",\"edges\":[";
  bool first = true;
  for (const BlameEdge& e : g.canonical()) {
    if (!first) os << ',';
    first = false;
    std::int64_t subset = -1;
    if (e.cause != kBlameNone && e.cause < g.subsetOf.size() && g.subsetOf[e.cause] != 0xff)
      subset = g.subsetOf[e.cause];
    os << "{\"kind\":\"" << blameKindName(e.kind) << "\",\"subset\":" << subset
       << ",\"cause\":" << id(e.cause) << ",\"victim\":" << id(e.victim)
       << ",\"count\":" << e.count << '}';
  }
  os << "],\"totals\":{";
  first = true;
  for (const auto& [name, value] : g.totals()) {
    if (!first) os << ',';
    first = false;
    os << '"' << jsonEscape(name) << "\":" << value;
  }
  os << '}';
  if (!g.victimDistance.empty()) {
    os << ",\"victimDist\":[";
    for (std::size_t i = 0; i < g.victimDistance.size(); ++i) {
      if (i > 0) os << ',';
      os << g.victimDistance[i];
    }
    os << ']';
  }
  os << "}\n";
}

void AttribJsonlSink::consume(const TrialTrace& trace) {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream os;
  writeBlame(os, trace);
  *os_ << os.str();
  os_->flush();
}

}  // namespace bzc::obs
