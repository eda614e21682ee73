#include "bench_framework/json_out.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <utility>

namespace cpq::bench {

namespace {

std::mutex sink_mutex;

void append_escaped(std::string& out, const std::string& text) {
  out += '"';
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_double(std::string& out, double value) {
  char buf[64];
  // %.17g round-trips every finite double exactly.
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  out += buf;
}

// --- minimal parser for the flat records this module emits ----------------

struct Cursor {
  const char* p;

  void skip_ws() {
    while (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r') ++p;
  }

  bool consume(char c) {
    skip_ws();
    if (*p != c) return false;
    ++p;
    return true;
  }
};

bool parse_string(Cursor& cur, std::string& out) {
  if (!cur.consume('"')) return false;
  out.clear();
  while (*cur.p != '"') {
    if (*cur.p == '\0') return false;
    if (*cur.p == '\\') {
      ++cur.p;
      switch (*cur.p) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            ++cur.p;
            const char c = *cur.p;
            code <<= 4;
            if (c >= '0' && c <= '9') code |= static_cast<unsigned>(c - '0');
            else if (c >= 'a' && c <= 'f') code |= static_cast<unsigned>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F') code |= static_cast<unsigned>(c - 'A' + 10);
            else return false;
          }
          if (code > 0x7F) return false;  // emitter only escapes ASCII controls
          out += static_cast<char>(code);
          break;
        }
        default: return false;
      }
      ++cur.p;
    } else {
      out += *cur.p++;
    }
  }
  ++cur.p;  // closing quote
  return true;
}

bool parse_number(Cursor& cur, double& out) {
  cur.skip_ws();
  char* end = nullptr;
  out = std::strtod(cur.p, &end);
  if (end == cur.p) return false;
  cur.p = end;
  return true;
}

}  // namespace

std::string to_json_line(const JsonRecord& record) {
  std::string out = "{\"schema_version\":";
  out += std::to_string(record.schema_version);
  out += ",\"experiment\":";
  append_escaped(out, record.experiment);
  out += ",\"threads\":";
  out += std::to_string(record.threads);
  out += ",\"queue\":";
  append_escaped(out, record.queue);
  out += ",\"metric\":";
  append_escaped(out, record.metric);
  out += ",\"mean\":";
  if (record.mean_is_null) {
    out += "null";
  } else {
    append_double(out, record.mean);
  }
  out += ",\"ci95\":";
  append_double(out, record.ci95);
  out += ",\"reps\":";
  out += std::to_string(record.reps);
  out += ",\"status\":";
  append_escaped(out, record.status);
  out += '}';
  return out;
}

bool parse_json_record(const std::string& line, JsonRecord& out) {
  out = JsonRecord{};
  Cursor cur{line.c_str()};
  if (!cur.consume('{')) return false;
  // experiment, threads, queue, metric, mean, ci95, reps, status,
  // schema_version: every key is required exactly once.
  bool seen[9] = {};
  for (;;) {
    std::string key;
    if (!parse_string(cur, key)) return false;
    if (!cur.consume(':')) return false;
    if (key == "schema_version") {
      double v = 0;
      if (seen[8] || !parse_number(cur, v)) return false;
      if (v < kMinJsonSchemaVersion || v > kJsonSchemaVersion) return false;
      out.schema_version = static_cast<unsigned>(v);
      seen[8] = true;
    } else if (key == "experiment") {
      if (seen[0] || !parse_string(cur, out.experiment)) return false;
      seen[0] = true;
    } else if (key == "threads") {
      double v = 0;
      if (seen[1] || !parse_number(cur, v) || v < 0) return false;
      out.threads = static_cast<unsigned>(v);
      seen[1] = true;
    } else if (key == "queue") {
      if (seen[2] || !parse_string(cur, out.queue)) return false;
      seen[2] = true;
    } else if (key == "metric") {
      if (seen[3] || !parse_string(cur, out.metric)) return false;
      seen[3] = true;
    } else if (key == "mean") {
      if (seen[4]) return false;
      cur.skip_ws();
      if (std::strncmp(cur.p, "null", 4) == 0) {
        // Metric unavailable in this environment.
        cur.p += 4;
        out.mean = 0.0;
        out.mean_is_null = true;
      } else if (!parse_number(cur, out.mean)) {
        return false;
      }
      seen[4] = true;
    } else if (key == "ci95") {
      if (seen[5] || !parse_number(cur, out.ci95)) return false;
      seen[5] = true;
    } else if (key == "reps") {
      double v = 0;
      if (seen[6] || !parse_number(cur, v) || v < 0) return false;
      out.reps = static_cast<unsigned>(v);
      seen[6] = true;
    } else if (key == "status") {
      if (seen[7] || !parse_string(cur, out.status)) return false;
      if (out.status != "ok" && out.status != "failed") return false;
      seen[7] = true;
    } else {
      return false;  // schema drift: unknown key
    }
    if (cur.consume(',')) continue;
    break;
  }
  if (!cur.consume('}')) return false;
  cur.skip_ws();
  if (*cur.p != '\0') return false;
  for (const bool s : seen) {
    if (!s) return false;
  }
  return true;
}

JsonSink& JsonSink::instance() {
  static JsonSink sink;
  return sink;
}

void JsonSink::set_path(std::string path) {
  std::lock_guard<std::mutex> lock(sink_mutex);
  path_ = std::move(path);
}

bool JsonSink::enabled() const { return !path_.empty(); }

void JsonSink::record(const JsonRecord& record) {
  std::lock_guard<std::mutex> lock(sink_mutex);
  if (path_.empty()) return;
  const std::string line = to_json_line(record);
  if (path_ == "-") {
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
    return;
  }
  if (std::FILE* f = std::fopen(path_.c_str(), "a")) {
    std::fprintf(f, "%s\n", line.c_str());
    std::fclose(f);
  } else {
    static bool warned = false;
    if (!warned) {
      warned = true;
      std::fprintf(stderr, "[cpq] --json: cannot append to '%s'\n",
                   path_.c_str());
    }
  }
}

}  // namespace cpq::bench
