#ifndef RDFQL_OBS_JSON_UTIL_H_
#define RDFQL_OBS_JSON_UTIL_H_

// The JSON file formats of src/obs and bench/, each declared once. A type
// lists its fields in one static member template,
//
//   template <class Self, class V> static void Fields(Self& s, V& v);
//
// and ToJson / FromJson below walk that list to write and to read, so a
// writer and its reader cannot drift apart. The visitor `v` takes:
//
//   v(key, field)                  a field that is always written and that
//                                  the reader requires;
//   v(key, field, present)         a field written only when `present`;
//                                  the reader takes it when it is there;
//   v.Flagged(key, field, flag)    the same, with `flag` the member that
//                                  says whether the field is there; the
//                                  reader sets it when it reads the key;
//   v.Version(n)                   a `"v":n` tag; the reader requires n;
//   v.Enum(key, field, names)      an enum, written as names[field];
//   v.Object(key, fields, present) a nested object whose fields are members
//                                  of the enclosing type; `fields` is a
//                                  callable that takes the visitor;
//   v.Lines(key, items)            an array written one element per line.
//
// A field is a bool, an integer, a double, a std::string, a std::pair (a
// two-element array), a std::vector (an array), a std::map<std::string, T>
// or a std::vector<std::pair<std::string, T>> (an object; the vector keeps
// its key order), or a type with its own Fields (an object).
//
// The writer prints doubles with six significant digits, and as an integer
// when the value or that rounding of it is integral, so a value read back
// writes the same bytes. The reader accepts keys in any order. It rejects
// unknown, duplicate and missing keys, wrong versions, integers outside
// their field's range and trailing bytes; an open reader (the query log's)
// instead skips unknown keys with a string, unsigned or boolean value and
// lets any field but the version be missing, so records of other versions
// of this code still read. The reader recurses along the type, not along
// the input, so no input nests it deeper than the type does. The cursor
// below it, JsonParser, also reads the user-written alert rule files.

#include <cctype>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace rdfql {
namespace jsonutil {

/// Stores `message` in `*error` (when non-null) and returns false.
inline bool Fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

/// Cursor over a JSON document. Every Parse* skips leading whitespace and
/// returns false on input that does not start with its kind of value.
/// Errors carry the byte offset of the cursor.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  bool Fail(std::string* error, const std::string& message) {
    return jsonutil::Fail(error, message + " near offset " +
                                     std::to_string(pos_));
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

  /// Parses the next `"name":` and returns the name.
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

 private:
  std::string_view text_;
  size_t pos_ = 0;
};

template <class T>
inline constexpr bool kIsPair = false;
template <class A, class B>
inline constexpr bool kIsPair<std::pair<A, B>> = true;
template <class T>
inline constexpr bool kIsVector = false;
template <class T>
inline constexpr bool kIsVector<std::vector<T>> = true;
template <class T>
inline constexpr bool kIsMap = false;
template <class T>
inline constexpr bool kIsMap<std::map<std::string, T>> = true;
/// (name, value) pairs: an object that keeps its key order.
template <class T>
inline constexpr bool kIsNamedList = false;
template <class T>
inline constexpr bool kIsNamedList<std::vector<std::pair<std::string, T>>> =
    true;

/// Appends `v` with six significant digits, as an integer when `v` or its
/// six-digit rounding is integral. The range test comes before the cast,
/// which is undefined for a double at or beyond 2^63.
inline void AppendNumber(double v, std::string* out) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  auto integral = [](double d) {
    return std::fabs(d) < 0x1p63 && d == std::trunc(d);
  };
  double shown = integral(v) ? v : std::strtod(buf, nullptr);
  if (integral(shown)) {
    std::snprintf(buf, sizeof(buf), "%" PRId64, static_cast<int64_t>(shown));
  }
  *out += buf;
}

/// Writes a value through its type's Fields (see the top of this file).
class Writer {
 public:
  explicit Writer(std::string* out) : out_(out) {}

  template <class T>
  void operator()(std::string_view key, const T& value) {
    Key(key);
    Value(value);
  }
  template <class T>
  void operator()(std::string_view key, const T& value, bool present) {
    if (present) (*this)(key, value);
  }
  template <class T>
  void Flagged(std::string_view key, const T& value, bool flag) {
    (*this)(key, value, flag);
  }
  void Version(uint64_t version) { (*this)("v", version); }
  template <class E, size_t N>
  void Enum(std::string_view key, E value, const char* const (&names)[N]) {
    (*this)(key, std::string_view(names[static_cast<size_t>(value)]));
  }
  template <class F>
  void Object(std::string_view key, F&& fields, bool present) {
    if (!present) return;
    Key(key);
    WriteObject(fields);
  }
  template <class T>
  void Lines(std::string_view key, const std::vector<T>& items) {
    Key(key);
    *out_ += "[\n";
    for (size_t i = 0; i < items.size(); ++i) {
      if (i > 0) *out_ += ",\n";
      *out_ += "  ";
      Value(items[i]);
    }
    *out_ += "\n]";
  }

  template <class T>
  void Value(const T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      *out_ += v ? "true" : "false";
    } else if constexpr (std::is_integral_v<T>) {
      *out_ += std::to_string(v);
    } else if constexpr (std::is_floating_point_v<T>) {
      AppendNumber(v, out_);
    } else if constexpr (std::is_convertible_v<const T&, std::string_view>) {
      out_->push_back('"');
      AppendJsonEscaped(v, out_);
      out_->push_back('"');
    } else if constexpr (kIsPair<T>) {
      out_->push_back('[');
      Value(v.first);
      out_->push_back(',');
      Value(v.second);
      out_->push_back(']');
    } else if constexpr (kIsMap<T> || kIsNamedList<T>) {
      WriteObject([&v](Writer& w) {
        for (const auto& [key, value] : v) w(key, value);
      });
    } else if constexpr (kIsVector<T>) {
      out_->push_back('[');
      for (size_t i = 0; i < v.size(); ++i) {
        if (i > 0) out_->push_back(',');
        Value(v[i]);
      }
      out_->push_back(']');
    } else {
      WriteObject([&v](Writer& w) { T::Fields(v, w); });
    }
  }

 private:
  void Key(std::string_view key) {
    if (!first_) out_->push_back(',');
    first_ = false;
    out_->push_back('"');
    AppendJsonEscaped(key, out_);
    *out_ += "\":";
  }

  template <class F>
  void WriteObject(F&& fields) {
    out_->push_back('{');
    bool outer_first = first_;
    first_ = true;
    fields(*this);
    first_ = outer_first;
    out_->push_back('}');
  }

  std::string* out_;
  bool first_ = true;
};

template <class T>
std::string ToJson(const T& value) {
  std::string out;
  Writer(&out).Value(value);
  return out;
}

/// Reads a value through its type's Fields (see the top of this file).
class Reader {
 public:
  Reader(std::string_view text, bool open, std::string* error)
      : p_(text), open_(open), error_(error) {}

  /// Records the first failure only: an enclosing field that fails because
  /// its value did keeps the inner, more precise message.
  bool Fail(const std::string& message) {
    if (!failed_) {
      failed_ = true;
      p_.Fail(error_, message);
    }
    return false;
  }

  bool AtEnd() { return p_.AtEnd(); }

  template <class T>
  bool Value(T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      return p_.ParseBool(&v);
    } else if constexpr (std::is_integral_v<T>) {
      std::conditional_t<std::is_unsigned_v<T>, uint64_t, int64_t> n = 0;
      bool ok = false;
      if constexpr (std::is_unsigned_v<T>) {
        ok = p_.ParseUint(&n);
      } else {
        ok = p_.ParseInt(&n);
      }
      if (!ok || !std::in_range<T>(n)) return false;
      v = static_cast<T>(n);
      return true;
    } else if constexpr (std::is_floating_point_v<T>) {
      return p_.ParseDouble(&v);
    } else if constexpr (std::is_same_v<T, std::string>) {
      return p_.ParseString(&v);
    } else if constexpr (kIsPair<T>) {
      return p_.Eat('[') && Value(v.first) && p_.Eat(',') &&
             Value(v.second) && p_.Eat(']');
    } else if constexpr (kIsMap<T> || kIsNamedList<T>) {
      v.clear();
      return ReadEntries([this, &v](const std::string& key) {
        if constexpr (kIsMap<T>) {
          return Value(v[key]);
        } else {
          v.emplace_back(key, typename T::value_type::second_type());
          return Value(v.back().second);
        }
      });
    } else if constexpr (kIsVector<T>) {
      v.clear();
      if (!p_.Eat('[')) return Fail("expected '['");
      if (p_.Eat(']')) return true;
      do {
        v.emplace_back();
        if (!Value(v.back())) return Fail("bad array element");
      } while (p_.Eat(','));
      return p_.Eat(']') || Fail("expected ',' or ']'");
    } else {
      return ReadFields([&v](auto& visitor) { T::Fields(v, visitor); });
    }
  }

 private:
  /// Visits one object's Fields list, either to read the value of `key`
  /// into the field it names or, on the check pass, to find a required
  /// field that was not read. Field i owns bit i of `seen`, so a Fields
  /// list has at most 64 entries.
  class FieldVisitor {
   public:
    FieldVisitor(Reader* reader, const std::string* key, uint64_t* seen)
        : r_(reader), key_(key), seen_(seen) {}

    template <class T>
    void operator()(std::string_view name, T& field) {
      Visit(name, !r_->open_, [&] { return r_->Value(field); });
    }
    template <class T, class P>
    void operator()(std::string_view name, T& field, const P&) {
      Visit(name, false, [&] { return r_->Value(field); });
    }
    template <class T>
    void Flagged(std::string_view name, T& field, bool& flag) {
      flag = Visit(name, false, [&] { return r_->Value(field); }) || flag;
    }
    void Version(uint64_t want) {
      Visit("v", true, [&] {
        uint64_t got = 0;
        if (!r_->p_.ParseUint(&got)) return false;
        return got == want ||
               r_->Fail("unsupported version " + std::to_string(got));
      });
    }
    template <class E, size_t N>
    void Enum(std::string_view name, E& field, const char* const (&names)[N]) {
      Visit(name, !r_->open_, [&] {
        std::string text;
        if (!r_->p_.ParseString(&text)) return false;
        for (size_t i = 0; i < N; ++i) {
          if (text == names[i]) {
            field = static_cast<E>(i);
            return true;
          }
        }
        return r_->Fail("unknown " + std::string(name) + " \"" + text + "\"");
      });
    }
    template <class F, class P>
    void Object(std::string_view name, F&& fields, const P&) {
      Visit(name, false, [&] { return r_->ReadFields(fields); });
    }
    template <class T>
    void Lines(std::string_view name, std::vector<T>& items) {
      (*this)(name, items);
    }

    bool matched() const { return matched_; }
    const std::string& missing() const { return missing_; }

   private:
    /// True when `name` is the key being read and its value was read.
    template <class Read>
    bool Visit(std::string_view name, bool required, Read&& read) {
      uint64_t bit = uint64_t{1} << index_++;
      if (key_ == nullptr) {
        if (required && (*seen_ & bit) == 0 && missing_.empty()) {
          missing_ = name;
        }
        return false;
      }
      if (matched_ || name != *key_) return false;
      matched_ = true;
      if ((*seen_ & bit) != 0) {
        return r_->Fail("duplicate key \"" + *key_ + "\"");
      }
      *seen_ |= bit;
      return read() || r_->Fail("bad value for \"" + *key_ + "\"");
    }

    Reader* r_;
    const std::string* key_;  // null on the check pass
    uint64_t* seen_;
    int index_ = 0;
    bool matched_ = false;
    std::string missing_;
  };

  /// Reads one object, calling entry(key) with the cursor at each value.
  template <class F>
  bool ReadEntries(F&& entry) {
    if (!p_.Eat('{')) return Fail("expected '{'");
    if (p_.Eat('}')) return true;
    do {
      std::string key;
      if (!p_.NextKey(&key)) return Fail("expected \"key\":");
      if (!entry(key)) return Fail("bad value for \"" + key + "\"");
    } while (p_.Eat(','));
    return p_.Eat('}') || Fail("expected ',' or '}'");
  }

  /// Reads one object whose keys are the fields `fields` visits.
  template <class F>
  bool ReadFields(F&& fields) {
    uint64_t seen = 0;
    bool ok = ReadEntries([&](const std::string& key) {
      FieldVisitor visitor(this, &key, &seen);
      fields(visitor);
      if (failed_) return false;
      if (visitor.matched()) return true;
      if (!open_) return Fail("unknown key \"" + key + "\"");
      std::string text;
      uint64_t number = 0;
      bool flag = false;
      return p_.ParseString(&text) || p_.ParseUint(&number) ||
             p_.ParseBool(&flag);
    });
    if (!ok) return false;
    FieldVisitor check(this, nullptr, &seen);
    fields(check);
    return check.missing().empty() ||
           Fail("missing \"" + check.missing() + "\"");
  }

  JsonParser p_;
  const bool open_;
  std::string* error_;
  bool failed_ = false;
};

/// Reads `text`, one value of T and nothing after it, into *out. On failure
/// returns false with a message in *error. `open` makes an open reader (see
/// the top of this file).
template <class T>
bool FromJson(std::string_view text, T* out, std::string* error,
              bool open = false) {
  *out = T();
  Reader reader(text, open, error);
  if (!reader.Value(*out)) return reader.Fail("malformed document");
  return reader.AtEnd() || reader.Fail("trailing content");
}

}  // namespace jsonutil
}  // namespace rdfql

#endif  // RDFQL_OBS_JSON_UTIL_H_
