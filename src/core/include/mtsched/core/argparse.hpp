// Typed command-line argument parsing shared by all mtsched tools.
//
// Every option is declared up front with its type, default and help text;
// parsing then rejects unknown options, missing values and malformed
// numbers with a descriptive core::InvalidArgument, and `help()` renders a
// real usage page from the declarations (no more "see tool header").
//
// Accepted syntax: `--name value`, `--name=value`, and bare `--flag`.
// Commands that operate on files declare required positional arguments
// with add_positional(); bare tokens fill them in declaration order.
// `--help` / `-h` are always recognised and only set help_requested().
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace mtsched::core {

class ArgParser {
 public:
  /// `prog` is the invocation shown in usage (e.g. "mtsched_cli campaign");
  /// `summary` is the one-line description under it.
  ArgParser(std::string prog, std::string summary);

  // Declarations. `name` is the long option without the leading "--";
  // `metavar` is the value placeholder shown in help. Each returns *this
  // so declarations chain.
  ArgParser& add_str(const std::string& name, const std::string& dflt,
                     const std::string& help,
                     const std::string& metavar = "STR");
  ArgParser& add_int(const std::string& name, std::int64_t dflt,
                     const std::string& help,
                     const std::string& metavar = "N");
  ArgParser& add_uint64(const std::string& name, std::uint64_t dflt,
                        const std::string& help,
                        const std::string& metavar = "N");
  ArgParser& add_double(const std::string& name, double dflt,
                        const std::string& help,
                        const std::string& metavar = "X");
  ArgParser& add_flag(const std::string& name, const std::string& help);

  /// Declares a required positional argument (read back with str()).
  /// Bare command-line tokens fill positionals in declaration order;
  /// parse() throws when one is missing or a surplus token appears.
  ArgParser& add_positional(const std::string& name, const std::string& help,
                            const std::string& metavar = "ARG");

  /// Parses argv[first..argc). Throws core::InvalidArgument on an unknown
  /// option (the message lists the valid ones), a value option at the end
  /// of the line, a flag given a value, a malformed number, or a missing/
  /// surplus positional argument (unless --help appeared).
  void parse(int argc, const char* const* argv, int first = 1);

  /// True when --help/-h appeared anywhere; the caller should print help()
  /// and exit instead of acting.
  bool help_requested() const { return help_requested_; }

  /// The rendered usage page.
  std::string help() const;

  // Typed access (throws InvalidArgument if `name` was never declared or
  // the declared type does not match the accessor).
  std::string str(const std::string& name) const;
  std::int64_t integer(const std::string& name) const;
  std::uint64_t uint64(const std::string& name) const;
  double number(const std::string& name) const;
  bool flag(const std::string& name) const;

 private:
  enum class Kind { Str, Int, Uint64, Double, Flag };

  struct Option {
    Kind kind;
    std::string help;
    std::string metavar;
    std::string value;  ///< current value (default until parse overwrites)
    bool given = false;
    bool positional = false;
  };

  const Option& lookup(const std::string& name, Kind kind,
                       const char* accessor) const;
  [[noreturn]] void fail_unknown(const std::string& name) const;

  std::string prog_;
  std::string summary_;
  std::map<std::string, Option> options_;
  std::vector<std::string> declaration_order_;
  std::vector<std::string> positional_order_;
  bool help_requested_ = false;
};

/// Splits a comma-separated list ("2000,3000" -> {"2000","3000"}); empty
/// segments are dropped, so trailing commas are harmless.
std::vector<std::string> split_csv(const std::string& s);

/// split_csv + numeric conversion; throws InvalidArgument on a malformed
/// entry, naming `what` in the message.
std::vector<int> split_csv_int(const std::string& s, const std::string& what);
std::vector<std::uint64_t> split_csv_uint64(const std::string& s,
                                            const std::string& what);

}  // namespace mtsched::core
