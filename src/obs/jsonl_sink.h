#ifndef RDFQL_OBS_JSONL_SINK_H_
#define RDFQL_OBS_JSONL_SINK_H_

#include <cstdio>
#include <deque>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace rdfql {

/// The ring-plus-JSONL sink behind QueryLog and AlertLog: a bounded ring of
/// the newest records for live introspection, plus an optional JSONL file.
/// Callers serialize a record outside the lock; Append writes the line with
/// one fwrite+fflush under the sink's mutex, so records from concurrent
/// writers never interleave bytes within a line.
template <typename Record>
class JsonlSink {
 public:
  /// Opens `path` (appending or truncating) unless it is empty; `what`
  /// names the log in error(). A capacity of 0 keeps one record.
  JsonlSink(const std::string& path, bool append, size_t capacity,
            const char* what)
      : capacity_(capacity == 0 ? 1 : capacity) {
    if (path.empty()) return;
    file_ = std::fopen(path.c_str(), append ? "a" : "w");
    if (file_ == nullptr) {
      error_ = std::string("cannot open ") + what + " '" + path + "'";
    }
  }
  ~JsonlSink() {
    if (file_ != nullptr) std::fclose(file_);
  }
  JsonlSink(const JsonlSink&) = delete;
  JsonlSink& operator=(const JsonlSink&) = delete;

  /// Why the file did not open; empty when it did or none was asked for
  /// (the ring works either way).
  const std::string& error() const { return error_; }
  /// Whether Append writes lines, i.e. whether callers need to serialize.
  bool has_file() const { return file_ != nullptr; }

  /// Keeps `record` in the ring and, with a file, writes `line` (newline
  /// included) to it.
  void Append(Record record, const std::string& line) {
    std::lock_guard<std::mutex> lock(mu_);
    ring_.push_back(std::move(record));
    if (ring_.size() > capacity_) ring_.pop_front();
    if (file_ != nullptr) {
      std::fwrite(line.data(), 1, line.size(), file_);
      std::fflush(file_);
    }
  }

  /// Copy of the ring, oldest first.
  std::vector<Record> Snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return std::vector<Record>(ring_.begin(), ring_.end());
  }

  /// A barrier for readers of the file (lines are flushed as written).
  void Flush() {
    std::lock_guard<std::mutex> lock(mu_);
    if (file_ != nullptr) std::fflush(file_);
  }

 private:
  const size_t capacity_;
  std::string error_;
  std::FILE* file_ = nullptr;  // set by the constructor only
  mutable std::mutex mu_;
  std::deque<Record> ring_;  // guarded by mu_
};

}  // namespace rdfql

#endif  // RDFQL_OBS_JSONL_SINK_H_
