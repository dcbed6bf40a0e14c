#ifndef RDFQL_OBS_JSON_UTIL_H_
#define RDFQL_OBS_JSON_UTIL_H_

// Internal hand-rolled JSON building blocks shared by the obs serializers
// (telemetry snapshots, history samples, alert rules/logs, query-log
// records). The repo keeps its no-dependency discipline: emitters append
// exact field sequences, and parsers are strict cursors that accept what
// the emitters write — plus arbitrary key order in the user-authored alert
// rules and in query-log records, whose reader skips unknown keys for
// forward compatibility. Born as file-local helpers in telemetry.cc;
// factored out once three .cc files needed the same primitives.
//
// Emit helpers share the `bool* first` comma protocol: the caller seeds
// `first = true` after an opening brace and every Append* inserts the
// separating comma itself.

#include <cctype>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace rdfql {
namespace jsonutil {

inline void AppendUint(const char* key, uint64_t v, bool* first,
                       std::string* out) {
  if (!*first) out->push_back(',');
  *first = false;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "\"%s\":%" PRIu64, key, v);
  *out += buf;
}

inline void AppendInt(const char* key, int64_t v, bool* first,
                      std::string* out) {
  if (!*first) out->push_back(',');
  *first = false;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "\"%s\":%" PRId64, key, v);
  *out += buf;
}

inline void AppendDouble(const char* key, double v, bool* first,
                         std::string* out) {
  if (!*first) out->push_back(',');
  *first = false;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "\"%s\":%.6g", key, v);
  *out += buf;
}

inline void AppendString(const char* key, std::string_view v, bool* first,
                         std::string* out) {
  if (!*first) out->push_back(',');
  *first = false;
  out->push_back('"');
  *out += key;
  *out += "\":\"";
  AppendJsonEscaped(v, out);
  out->push_back('"');
}

inline void AppendBool(const char* key, bool v, bool* first,
                       std::string* out) {
  if (!*first) out->push_back(',');
  *first = false;
  out->push_back('"');
  *out += key;
  *out += v ? "\":true" : "\":false";
}

inline void AppendBuckets(
    const char* key, const std::vector<std::pair<uint64_t, uint64_t>>& buckets,
    bool* first, std::string* out) {
  if (!*first) out->push_back(',');
  *first = false;
  out->push_back('"');
  *out += key;
  *out += "\":[";
  bool inner_first = true;
  char buf[64];
  for (const auto& [bound, n] : buckets) {
    if (!inner_first) out->push_back(',');
    inner_first = false;
    std::snprintf(buf, sizeof(buf), "[%" PRIu64 ",%" PRIu64 "]", bound, n);
    *out += buf;
  }
  out->push_back(']');
}

/// Strict cursor over a JSON document. Emitter-side formats consume fields
/// in the exact order they were written (Key + Parse*); the rule parser
/// additionally uses NextKey to accept user-authored objects in any key
/// order. Errors carry the byte offset of the first violation.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  bool Fail(std::string* error, const std::string& message) {
    if (error != nullptr) {
      *error = message + " near offset " + std::to_string(pos_);
    }
    return false;
  }

  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Eat(char c) {
    SkipWs();
    if (pos_ >= text_.size() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  bool Peek(char c) {
    SkipWs();
    return pos_ < text_.size() && text_[pos_] == c;
  }

  bool AtEnd() {
    SkipWs();
    return pos_ >= text_.size();
  }

  bool Key(const char* key) {
    SkipWs();
    size_t len = std::strlen(key);
    if (pos_ + len + 3 > text_.size() || text_[pos_] != '"') return false;
    if (text_.compare(pos_ + 1, len, key) != 0) return false;
    if (text_[pos_ + 1 + len] != '"' || text_[pos_ + 2 + len] != ':') {
      return false;
    }
    pos_ += len + 3;
    return true;
  }

  /// Parses the next `"name":` and returns the name — for objects whose key
  /// order the producer does not control (user-authored rule files).
  bool NextKey(std::string* out) {
    if (!ParseString(out)) return false;
    return Eat(':');
  }

  /// Fails on a value above UINT64_MAX instead of wrapping: these readers
  /// take files other processes write, and a wrapped figure would pass for
  /// a real one.
  bool ParseUint(uint64_t* out) {
    SkipWs();
    if (pos_ >= text_.size() ||
        !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      return false;
    }
    uint64_t v = 0;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      uint64_t digit = static_cast<uint64_t>(text_[pos_++] - '0');
      if (v > (UINT64_MAX - digit) / 10) return false;
      v = v * 10 + digit;
    }
    *out = v;
    return true;
  }

  /// Fails outside [INT64_MIN, INT64_MAX], like ParseUint.
  bool ParseInt(int64_t* out) {
    SkipWs();
    bool negative = pos_ < text_.size() && text_[pos_] == '-';
    if (negative) ++pos_;
    uint64_t v = 0;
    if (!ParseUint(&v)) return false;
    uint64_t max = negative ? uint64_t{1} << 63 : uint64_t{INT64_MAX};
    if (v > max) return false;
    *out = negative ? static_cast<int64_t>(0 - v) : static_cast<int64_t>(v);
    return true;
  }

  bool ParseDouble(double* out) {
    SkipWs();
    char buf[64];
    size_t n = 0;
    while (pos_ + n < text_.size() && n + 1 < sizeof(buf)) {
      char c = text_[pos_ + n];
      if (std::isdigit(static_cast<unsigned char>(c)) || c == '-' ||
          c == '+' || c == '.' || c == 'e' || c == 'E') {
        buf[n++] = c;
      } else {
        break;
      }
    }
    if (n == 0) return false;
    buf[n] = '\0';
    char* end = nullptr;
    *out = std::strtod(buf, &end);
    if (end != buf + n) return false;
    pos_ += n;
    return true;
  }

  bool ParseBool(bool* out) {
    SkipWs();
    if (text_.compare(pos_, 4, "true") == 0) {
      *out = true;
      pos_ += 4;
      return true;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      *out = false;
      pos_ += 5;
      return true;
    }
    return false;
  }

  bool ParseString(std::string* out) {
    SkipWs();
    if (pos_ >= text_.size() || text_[pos_] != '"') return false;
    ++pos_;
    // Overwrite, don't append: callers pass fields that may hold defaults.
    out->clear();
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) return false;
        char esc = text_[pos_++];
        switch (esc) {
          case '"':
          case '\\':
          case '/':
            out->push_back(esc);
            break;
          case 'n':
            out->push_back('\n');
            break;
          case 't':
            out->push_back('\t');
            break;
          case 'r':
            out->push_back('\r');
            break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return false;
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code |= static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code |= static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code |= static_cast<unsigned>(h - 'A' + 10);
              } else {
                return false;
              }
            }
            out->push_back(code < 0x80 ? static_cast<char>(code) : '?');
            break;
          }
          default:
            return false;
        }
      } else {
        out->push_back(c);
      }
    }
    return false;
  }

  bool ParseBuckets(std::vector<std::pair<uint64_t, uint64_t>>* out) {
    if (!Eat('[')) return false;
    if (Eat(']')) return true;
    do {
      uint64_t bound = 0, n = 0;
      if (!Eat('[') || !ParseUint(&bound) || !Eat(',') || !ParseUint(&n) ||
          !Eat(']')) {
        return false;
      }
      out->emplace_back(bound, n);
    } while (Eat(','));
    return Eat(']');
  }

 private:
  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace jsonutil
}  // namespace rdfql

#endif  // RDFQL_OBS_JSON_UTIL_H_
