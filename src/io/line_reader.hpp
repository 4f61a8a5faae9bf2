// The line grammar every text reader shares (io/text_format.cpp and the
// fleet container in shard/fleet_io.cpp): one record per line, '#' starts
// a comment, blank lines are skipped, and each diagnostic names its line.
// Internal to those readers; not part of the io API.
#pragma once

#include <cstdint>
#include <exception>
#include <istream>
#include <sstream>
#include <string>
#include <vector>

namespace tdmd::io::internal {

/// Tokenizing line reader that skips blanks/comments and tracks line
/// numbers for diagnostics.  Strictly line-at-a-time, so after any Next()
/// the stream sits at the start of the following line — the property a
/// fleet file's embedded engine blocks rely on.
class LineReader {
 public:
  explicit LineReader(std::istream& is) : is_(is) {}

  /// Next meaningful line split into whitespace tokens; false at EOF.
  bool Next(std::vector<std::string>& tokens) {
    std::string line;
    while (std::getline(is_, line)) {
      ++line_number_;
      // Strip comments.
      if (auto hash = line.find('#'); hash != std::string::npos) {
        line.resize(hash);
      }
      std::istringstream ss(line);
      tokens.clear();
      std::string token;
      while (ss >> token) tokens.push_back(std::move(token));
      if (!tokens.empty()) return true;
    }
    return false;
  }

  int line_number() const { return line_number_; }

 private:
  std::istream& is_;
  int line_number_ = 0;
};

inline std::string AtLine(int line, const std::string& message) {
  std::ostringstream oss;
  oss << "line " << line << ": " << message;
  return oss.str();
}

inline bool ParseInt(const std::string& token, std::int64_t& out) {
  try {
    std::size_t consumed = 0;
    out = std::stoll(token, &consumed);
    return consumed == token.size();
  } catch (const std::exception&) {
    return false;
  }
}

inline bool ParseU64(const std::string& token, std::uint64_t& out) {
  // stoull silently wraps "-1"; reject signs up front.
  if (token.empty() || token[0] == '-' || token[0] == '+') return false;
  try {
    std::size_t consumed = 0;
    out = std::stoull(token, &consumed);
    return consumed == token.size();
  } catch (const std::exception&) {
    return false;
  }
}

/// Strictly ordered `<key> <u64>` line.
inline bool ReadKeyedU64(LineReader& reader, std::vector<std::string>& tokens,
                         const char* key, std::uint64_t& out,
                         std::string& error) {
  if (!reader.Next(tokens) || tokens.size() != 2 || tokens[0] != key ||
      !ParseU64(tokens[1], out)) {
    error = AtLine(reader.line_number(),
                   std::string("expected '") + key + " <u64>'");
    return false;
  }
  return true;
}

}  // namespace tdmd::io::internal
