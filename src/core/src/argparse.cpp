#include "mtsched/core/argparse.hpp"

#include <algorithm>
#include <sstream>

#include "mtsched/core/error.hpp"

namespace mtsched::core {

namespace {

std::int64_t parse_i64(const std::string& text, const std::string& what) {
  try {
    std::size_t pos = 0;
    const std::int64_t v = std::stoll(text, &pos);
    if (pos != text.size()) throw std::invalid_argument("trailing junk");
    return v;
  } catch (const std::exception&) {
    throw InvalidArgument("invalid integer for " + what + ": '" + text + "'");
  }
}

std::uint64_t parse_u64(const std::string& text, const std::string& what) {
  try {
    if (!text.empty() && text[0] == '-') throw std::invalid_argument("sign");
    std::size_t pos = 0;
    const std::uint64_t v = std::stoull(text, &pos);
    if (pos != text.size()) throw std::invalid_argument("trailing junk");
    return v;
  } catch (const std::exception&) {
    throw InvalidArgument("invalid non-negative integer for " + what +
                          ": '" + text + "'");
  }
}

double parse_f64(const std::string& text, const std::string& what) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(text, &pos);
    if (pos != text.size()) throw std::invalid_argument("trailing junk");
    return v;
  } catch (const std::exception&) {
    throw InvalidArgument("invalid number for " + what + ": '" + text + "'");
  }
}

}  // namespace

ArgParser::ArgParser(std::string prog, std::string summary)
    : prog_(std::move(prog)), summary_(std::move(summary)) {}

ArgParser& ArgParser::add_str(const std::string& name, const std::string& dflt,
                              const std::string& help,
                              const std::string& metavar) {
  options_[name] = Option{Kind::Str, help, metavar, dflt, false};
  declaration_order_.push_back(name);
  return *this;
}

ArgParser& ArgParser::add_int(const std::string& name, std::int64_t dflt,
                              const std::string& help,
                              const std::string& metavar) {
  options_[name] =
      Option{Kind::Int, help, metavar, std::to_string(dflt), false};
  declaration_order_.push_back(name);
  return *this;
}

ArgParser& ArgParser::add_uint64(const std::string& name, std::uint64_t dflt,
                                 const std::string& help,
                                 const std::string& metavar) {
  options_[name] =
      Option{Kind::Uint64, help, metavar, std::to_string(dflt), false};
  declaration_order_.push_back(name);
  return *this;
}

ArgParser& ArgParser::add_double(const std::string& name, double dflt,
                                 const std::string& help,
                                 const std::string& metavar) {
  std::ostringstream os;
  os << dflt;
  options_[name] = Option{Kind::Double, help, metavar, os.str(), false};
  declaration_order_.push_back(name);
  return *this;
}

ArgParser& ArgParser::add_flag(const std::string& name,
                               const std::string& help) {
  options_[name] = Option{Kind::Flag, help, "", "", false};
  declaration_order_.push_back(name);
  return *this;
}

ArgParser& ArgParser::add_positional(const std::string& name,
                                     const std::string& help,
                                     const std::string& metavar) {
  Option opt{Kind::Str, help, metavar, "", false};
  opt.positional = true;
  options_[name] = std::move(opt);
  positional_order_.push_back(name);
  return *this;
}

void ArgParser::fail_unknown(const std::string& name) const {
  std::ostringstream os;
  os << prog_ << ": unknown option '--" << name << "' (valid:";
  for (const auto& n : declaration_order_) os << " --" << n;
  os << " --help)";
  throw InvalidArgument(os.str());
}

void ArgParser::parse(int argc, const char* const* argv, int first) {
  std::size_t next_positional = 0;
  for (int i = first; i < argc; ++i) {
    std::string token = argv[i];
    if (token == "--help" || token == "-h") {
      help_requested_ = true;
      continue;
    }
    if (token.rfind("--", 0) != 0) {
      if (next_positional >= positional_order_.size()) {
        throw InvalidArgument(
            prog_ + ": unexpected positional argument '" + token + "'" +
            (positional_order_.empty() ? " (options start with --)"
                                       : " (surplus positional)"));
      }
      Option& pos = options_.at(positional_order_[next_positional++]);
      pos.value = token;
      pos.given = true;
      continue;
    }
    token = token.substr(2);

    std::string name = token;
    std::string inline_value;
    bool has_inline_value = false;
    if (const auto eq = token.find('='); eq != std::string::npos) {
      name = token.substr(0, eq);
      inline_value = token.substr(eq + 1);
      has_inline_value = true;
    }

    const auto it = options_.find(name);
    if (it == options_.end()) fail_unknown(name);
    Option& opt = it->second;

    if (opt.kind == Kind::Flag) {
      if (has_inline_value) {
        throw InvalidArgument(prog_ + ": option '--" + name +
                              "' is a flag and takes no value");
      }
      opt.value = "1";
      opt.given = true;
      continue;
    }

    std::string value;
    if (has_inline_value) {
      value = inline_value;
    } else {
      if (i + 1 >= argc) {
        throw InvalidArgument(prog_ + ": option '--" + name +
                              "' requires a value");
      }
      value = argv[++i];
    }

    // Validate eagerly so the error points at the offending option.
    switch (opt.kind) {
      case Kind::Int: parse_i64(value, "--" + name); break;
      case Kind::Uint64: parse_u64(value, "--" + name); break;
      case Kind::Double: parse_f64(value, "--" + name); break;
      default: break;
    }
    opt.value = value;
    opt.given = true;
  }
  if (!help_requested_) {
    for (const auto& name : positional_order_) {
      if (!options_.at(name).given) {
        throw InvalidArgument(prog_ + ": missing required argument " +
                              options_.at(name).metavar + " (" + name + ")");
      }
    }
  }
}

std::string ArgParser::help() const {
  std::ostringstream os;
  os << "usage: " << prog_;
  for (const auto& name : positional_order_) os << ' ' << options_.at(name).metavar;
  for (const auto& name : declaration_order_) {
    const Option& o = options_.at(name);
    os << " [--" << name;
    if (o.kind != Kind::Flag) os << ' ' << o.metavar;
    os << ']';
  }
  os << "\n\n" << summary_ << "\n\n";
  if (!positional_order_.empty()) {
    os << "arguments:\n";
    for (const auto& name : positional_order_) {
      const Option& o = options_.at(name);
      std::string lhs = "  " + o.metavar;
      os << lhs;
      if (lhs.size() < 26) os << std::string(26 - lhs.size(), ' ');
      else os << "\n" << std::string(26, ' ');
      os << o.help << '\n';
    }
    os << '\n';
  }
  os << "options:\n";
  for (const auto& name : declaration_order_) {
    const Option& o = options_.at(name);
    std::string lhs = "  --" + name;
    if (o.kind != Kind::Flag) lhs += ' ' + o.metavar;
    os << lhs;
    if (lhs.size() < 26) os << std::string(26 - lhs.size(), ' ');
    else os << "\n" << std::string(26, ' ');
    os << o.help;
    if (o.kind != Kind::Flag && !o.value.empty()) {
      os << " [default: " << o.value << ']';
    }
    os << '\n';
  }
  os << "  --help                  show this help and exit\n";
  return os.str();
}

const ArgParser::Option& ArgParser::lookup(const std::string& name, Kind kind,
                                           const char* accessor) const {
  const auto it = options_.find(name);
  MTSCHED_REQUIRE(it != options_.end(),
                  "option '--" + name + "' was never declared");
  MTSCHED_REQUIRE(it->second.kind == kind,
                  "option '--" + name + "' read through wrong accessor " +
                      accessor);
  return it->second;
}

std::string ArgParser::str(const std::string& name) const {
  return lookup(name, Kind::Str, "str()").value;
}

std::int64_t ArgParser::integer(const std::string& name) const {
  return parse_i64(lookup(name, Kind::Int, "integer()").value, "--" + name);
}

std::uint64_t ArgParser::uint64(const std::string& name) const {
  return parse_u64(lookup(name, Kind::Uint64, "uint64()").value, "--" + name);
}

double ArgParser::number(const std::string& name) const {
  return parse_f64(lookup(name, Kind::Double, "number()").value, "--" + name);
}

bool ArgParser::flag(const std::string& name) const {
  return !lookup(name, Kind::Flag, "flag()").value.empty();
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::string item;
  std::istringstream is(s);
  while (std::getline(is, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

std::vector<int> split_csv_int(const std::string& s, const std::string& what) {
  std::vector<int> out;
  for (const auto& item : split_csv(s)) {
    out.push_back(static_cast<int>(parse_i64(item, what)));
  }
  return out;
}

std::vector<std::uint64_t> split_csv_uint64(const std::string& s,
                                            const std::string& what) {
  std::vector<std::uint64_t> out;
  for (const auto& item : split_csv(s)) out.push_back(parse_u64(item, what));
  return out;
}

}  // namespace mtsched::core
