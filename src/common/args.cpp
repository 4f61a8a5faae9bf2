#include "common/args.hpp"

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

namespace tdmd {

ArgParser::ArgParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

ArgParser::Flag& ArgParser::Register(const std::string& name, Kind kind,
                                     const std::string& help) {
  auto [it, inserted] = flags_.try_emplace(name);
  if (!inserted) {
    Fail("duplicate flag registration: --" + name);
  }
  it->second.kind = kind;
  it->second.help = help;
  return it->second;
}

const std::int64_t* ArgParser::AddInt(const std::string& name,
                                      std::int64_t def,
                                      const std::string& help) {
  Flag& flag = Register(name, Kind::kInt, help);
  flag.int_value = def;
  flag.default_repr = std::to_string(def);
  return &flag.int_value;
}

const double* ArgParser::AddDouble(const std::string& name, double def,
                                   const std::string& help) {
  Flag& flag = Register(name, Kind::kDouble, help);
  flag.double_value = def;
  std::ostringstream oss;
  oss << def;
  flag.default_repr = oss.str();
  return &flag.double_value;
}

const bool* ArgParser::AddBool(const std::string& name, bool def,
                               const std::string& help) {
  Flag& flag = Register(name, Kind::kBool, help);
  flag.bool_value = def;
  flag.default_repr = def ? "true" : "false";
  return &flag.bool_value;
}

const std::string* ArgParser::AddString(const std::string& name,
                                        std::string def,
                                        const std::string& help) {
  Flag& flag = Register(name, Kind::kString, help);
  flag.string_value = std::move(def);
  flag.default_repr = flag.string_value;
  return &flag.string_value;
}

void ArgParser::SetFromString(const std::string& name, Flag& flag,
                              const std::string& value) {
  try {
    switch (flag.kind) {
      case Kind::kInt:
        flag.int_value = std::stoll(value);
        break;
      case Kind::kDouble:
        flag.double_value = std::stod(value);
        break;
      case Kind::kBool:
        if (value == "true" || value == "1") {
          flag.bool_value = true;
        } else if (value == "false" || value == "0") {
          flag.bool_value = false;
        } else {
          Fail("--" + name + " expects true/false, got '" + value + "'");
        }
        break;
      case Kind::kString:
        flag.string_value = value;
        break;
    }
  } catch (const std::exception&) {
    Fail("could not parse value '" + value + "' for flag --" + name);
  }
}

void ArgParser::Parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(Usage().c_str(), stdout);
      std::exit(0);
    }
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string name = arg.substr(2);
    std::string value;
    bool has_value = false;
    if (auto eq = name.find('='); eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
      has_value = true;
    }
    auto it = flags_.find(name);
    if (it == flags_.end()) {
      Fail("unknown flag --" + name);
    }
    Flag& flag = it->second;
    flag.given = true;
    if (!has_value) {
      if (flag.kind == Kind::kBool) {
        flag.bool_value = true;  // bare --flag
        continue;
      }
      if (i + 1 >= argc) {
        Fail("flag --" + name + " expects a value");
      }
      value = argv[++i];
    }
    SetFromString(name, flag, value);
  }
}

bool ArgParser::Given(const std::string& name) const {
  const auto it = flags_.find(name);
  return it != flags_.end() && it->second.given;
}

std::string ArgParser::Usage() const {
  std::ostringstream oss;
  oss << program_ << " — " << description_ << "\n\nFlags:\n";
  for (const auto& [name, flag] : flags_) {
    oss << "  --" << name << " (default: " << flag.default_repr << ")\n"
        << "      " << flag.help << "\n";
  }
  return oss.str();
}

void ArgParser::Fail(const std::string& message) const {
  std::fprintf(stderr, "%s: %s\n\n%s", program_.c_str(), message.c_str(),
               Usage().c_str());
  std::exit(2);
}

}  // namespace tdmd
