// Minimal command-line argument parsing for benches and examples.
//
// Flags are `--name=value` or `--name value`; bare `--name` sets a boolean.
// Unknown flags abort with a usage message listing registered flags, so a
// typo in a sweep script fails loudly instead of silently running defaults.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace tdmd {

class ArgParser {
 public:
  /// `description` is printed at the top of --help output.
  ArgParser(std::string program, std::string description);

  // Registration: each returns a stable pointer the caller reads after
  // Parse().  Defaults are used when the flag is absent.
  const std::int64_t* AddInt(const std::string& name, std::int64_t def,
                             const std::string& help);
  const double* AddDouble(const std::string& name, double def,
                          const std::string& help);
  const bool* AddBool(const std::string& name, bool def,
                      const std::string& help);
  const std::string* AddString(const std::string& name, std::string def,
                               const std::string& help);

  /// Parses argv.  On `--help`, prints usage and exits(0).  On an unknown
  /// or malformed flag, prints usage and exits(2).
  void Parse(int argc, const char* const* argv);

  /// Positional (non-flag) arguments, in order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// True when argv named the registered flag `name`.
  bool Given(const std::string& name) const;

  std::string Usage() const;

 private:
  enum class Kind { kInt, kDouble, kBool, kString };
  struct Flag {
    Kind kind;
    std::string help;
    std::string default_repr;
    std::int64_t int_value = 0;
    double double_value = 0.0;
    bool bool_value = false;
    std::string string_value;
    bool given = false;
  };

  Flag& Register(const std::string& name, Kind kind, const std::string& help);
  void SetFromString(const std::string& name, Flag& flag,
                     const std::string& value);
  [[noreturn]] void Fail(const std::string& message) const;

  std::string program_;
  std::string description_;
  std::map<std::string, Flag> flags_;
  std::vector<std::string> positional_;
};

}  // namespace tdmd
